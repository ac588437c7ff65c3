open Ssj_stream
open Ssj_core

module Obs = Ssj_obs.Obs

(* Per-step engine metrics.  The occupancy histogram is the saturation
   diagnostic: a policy sweep only discriminates when the cache is full
   of live tuples, i.e. when the occupancy mass sits at the capacity
   bucket *and* [policy.dead_candidates] stays low. *)
let m_steps = Obs.Counter.create "join_sim.steps"
let m_arrivals = Obs.Counter.create "join_sim.arrivals"
let m_matches = Obs.Counter.create "join_sim.matches"
let m_evictions = Obs.Counter.create "join_sim.evictions"
let m_occupancy = Obs.Histogram.create ~buckets:256 "join_sim.occupancy"
let m_budget_aborts = Obs.Counter.create "join_sim.budget_aborts"

exception Step_budget_exceeded of { policy : string; steps : int }

let () =
  Printexc.register_printer (function
    | Step_budget_exceeded { policy; steps } ->
      Some
        (Printf.sprintf
           "Join_sim.Step_budget_exceeded(policy=%s, steps=%d)" policy steps)
    | _ -> None)

(* Soft per-run timeout: a run whose trace asks for more steps than the
   supervisor budgeted is aborted here rather than allowed to burn a
   whole sweep's wall-clock.  Checked at the top of every step. *)
let[@inline] check_budget ~policy ~budget ~now =
  match budget with
  | Some b when now >= b ->
    Obs.Counter.incr m_budget_aborts;
    raise (Step_budget_exceeded { policy; steps = now })
  | Some _ | None -> ()

let observe_step ~now ~warmup ~produced ~occupancy ~evicted =
  Obs.Counter.incr m_steps;
  Obs.Counter.add m_arrivals 2;
  Obs.Counter.add m_matches produced;
  Obs.Counter.add m_evictions evicted;
  Obs.Histogram.observe m_occupancy occupancy;
  if now = warmup then
    Obs.event ~name:"join_sim.warmup_boundary"
      [ ("t", Obs.I now); ("occupancy", Obs.I occupancy) ]

type result = {
  total_results : int;
  counted_results : int;
  share_samples : (int * float) list;
}

let matches_in_cache ?window ?(band = 0) ~now cache (arrival : Tuple.t) =
  let partner = Tuple.partner arrival.Tuple.side in
  List.fold_left
    (fun acc (c : Tuple.t) ->
      let in_window =
        match window with None -> true | Some w -> Window.inside w ~now c
      in
      if
        in_window
        && c.Tuple.side = partner
        && abs (c.Tuple.value - arrival.Tuple.value) <= band
      then acc + 1
      else acc)
    0 cache

(* Policies without a [fast] step (FlowExpect, incremental and adaptive
   HEEB, test doubles) run through this adapter, built per run from
   [select] as it is at run time.  It keeps the policy's last selection
   as the [cached] list — [src] holds the same tuples — and copies each
   new one into [dst], leaving the diff to the index ([evicted_n = -1]). *)
let lift select : Policy.fast_select =
  let cached = ref [] in
  fun ~src:_ ~dst ~now ~r ~s ~capacity ->
    let next = select ~now ~cached:!cached ~arrivals:[ r; s ] ~capacity in
    cached := next;
    let k = List.length next in
    if Array.length dst.Policy.uids < k then begin
      dst.Policy.uids <- Array.make (max 16 (2 * k)) 0;
      dst.Policy.values <- Array.make (max 16 (2 * k)) 0
    end;
    dst.Policy.kept_r <- false;
    dst.Policy.kept_s <- false;
    List.iteri
      (fun j (t : Tuple.t) ->
        dst.Policy.uids.(j) <- t.Tuple.uid;
        dst.Policy.values.(j) <- t.Tuple.value;
        if t.Tuple.uid = r.Tuple.uid then dst.Policy.kept_r <- true
        else if t.Tuple.uid = s.Tuple.uid then dst.Policy.kept_s <- true)
      next;
    dst.Policy.n <- k;
    dst.Policy.evicted_n <- -1

(* [~validate:true]: the step's selection in [dst] against the candidates
   [src] ∪ {r, s}, and its reported diff against the actual one — the
   contract the join index maintenance relies on.  Raises [Failure]
   naming the first violation. *)
let check_step ~name ~now ~capacity ~(src : Policy.buffer)
    ~(dst : Policy.buffer) ~(r : Tuple.t) ~(s : Tuple.t) =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        failwith (Printf.sprintf "policy %s at t=%d: %s" name now msg))
      fmt
  in
  if dst.Policy.n > capacity then
    fail "selection of size %d exceeds capacity %d" dst.Policy.n capacity;
  (* [kept.(p)]: candidate [p] survives — [src] slot [p < n0], then r, s. *)
  let n0 = src.Policy.n in
  let kept = Array.make (n0 + 2) false in
  for j = 0 to dst.Policy.n - 1 do
    let u = dst.Policy.uids.(j) and v = dst.Policy.values.(j) in
    let rec find p =
      if p = n0 then fail "uid %d is neither cached nor arriving" u
      else if src.Policy.uids.(p) = u then p
      else find (p + 1)
    in
    let p =
      if u = r.Tuple.uid then n0 else if u = s.Tuple.uid then n0 + 1 else find 0
    in
    let expected =
      if p < n0 then src.Policy.values.(p)
      else if p = n0 then r.Tuple.value
      else s.Tuple.value
    in
    if kept.(p) then fail "selection contains uid %d twice" u;
    if v <> expected then fail "uid %d carries value %d, not %d" u v expected;
    kept.(p) <- true
  done;
  if dst.Policy.evicted_n >= 0 then begin
    if dst.Policy.kept_r <> kept.(n0) || dst.Policy.kept_s <> kept.(n0 + 1)
    then fail "diff misreports which arrivals were kept";
    let reported = Array.make n0 false in
    for e = 0 to dst.Policy.evicted_n - 1 do
      let p = dst.Policy.evicted.(e) in
      if p < 0 || p >= n0 || kept.(p) || reported.(p) then
        fail "diff wrongly reports position %d as evicted" p;
      reported.(p) <- true
    done;
    for p = 0 to n0 - 1 do
      if not (kept.(p) || reported.(p)) then
        fail "diff omits the eviction of position %d" p
    done
  end

let contents (b : Policy.buffer) =
  List.init b.Policy.n (fun j ->
      Tuple.of_uid ~uid:b.Policy.uids.(j) ~value:b.Policy.values.(j))

let r_share (b : Policy.buffer) =
  if b.Policy.n = 0 then 0.0
  else begin
    let r = ref 0 in
    for j = 0 to b.Policy.n - 1 do
      if b.Policy.uids.(j) land 1 = 0 then incr r
    done;
    float_of_int !r /. float_of_int b.Policy.n
  end

(* One loop for every policy and every option: the cache lives in two
   engine-owned buffers ping-ponged each step, so with a [fast] policy
   and no checks the loop allocates nothing.  Validation, the decision
   log and share sampling read the step's [dst] buffer. *)
let run_internal ~trace ~policy ~capacity ?(warmup = 0) ?window ?band
    ?record_share ?(validate = false) ?step_budget ~log () =
  let tlen = Trace.length trace in
  let decisions =
    match log with true -> Some (Array.make tlen []) | false -> None
  in
  let index = Join_index.create ?window ?band ~length:tlen () in
  let total = ref 0 and counted = ref 0 in
  let shares = ref [] in
  let fast =
    match policy.Policy.fast with
    | Some fast -> fast
    | None -> lift policy.Policy.select
  in
  let src = ref (Policy.buffer ()) and dst = ref (Policy.buffer ()) in
  for now = 0 to tlen - 1 do
    check_budget ~policy:policy.Policy.name ~budget:step_budget ~now;
    let r_t, s_t = Trace.arrivals trace now in
    let produced =
      Join_index.matches index ~now r_t + Join_index.matches index ~now s_t
    in
    total := !total + produced;
    if now >= warmup then counted := !counted + produced;
    let src_b = !src and dst_b = !dst in
    fast ~src:src_b ~dst:dst_b ~now ~r:r_t ~s:s_t ~capacity;
    if validate then
      check_step ~name:policy.Policy.name ~now ~capacity ~src:src_b ~dst:dst_b
        ~r:r_t ~s:s_t;
    (let en = dst_b.Policy.evicted_n in
     if en >= 0 then begin
       (* The policy reported the exact step diff (at most two entries
          either way in the steady state).  Evictions are positions in
          the previous buffer. *)
       if dst_b.Policy.kept_r then Join_index.insert index r_t;
       if dst_b.Policy.kept_s then Join_index.insert index s_t;
       let ev = dst_b.Policy.evicted in
       let su = src_b.Policy.uids and sv = src_b.Policy.values in
       for e = 0 to en - 1 do
         let pos = Array.unsafe_get ev e in
         Join_index.remove_id index
           ~uid:(Array.unsafe_get su pos)
           ~value:(Array.unsafe_get sv pos)
       done
     end
     else
       Join_index.update_arrays index ~prev_uids:src_b.Policy.uids
         ~prev_values:src_b.Policy.values ~prev_n:src_b.Policy.n
         ~next_uids:dst_b.Policy.uids ~next_values:dst_b.Policy.values
         ~next_n:dst_b.Policy.n);
    if Obs.on () then begin
      let en = dst_b.Policy.evicted_n in
      let evicted =
        if en >= 0 then en
        else
          (* Diff not enumerated, but the cached-tuple eviction count
             follows from the sizes. *)
          src_b.Policy.n
          - (dst_b.Policy.n
            - (if dst_b.Policy.kept_r then 1 else 0)
            - if dst_b.Policy.kept_s then 1 else 0)
      in
      observe_step ~now ~warmup ~produced ~occupancy:dst_b.Policy.n ~evicted
    end;
    (match decisions with Some d -> d.(now) <- contents dst_b | None -> ());
    (match record_share with
    | Some every when every > 0 && now mod every = 0 ->
      shares := (now, r_share dst_b) :: !shares
    | Some _ | None -> ());
    src := dst_b;
    dst := src_b
  done;
  ( {
      total_results = !total;
      counted_results = !counted;
      share_samples = List.rev !shares;
    },
    decisions )

let run ~trace ~policy ~capacity ?warmup ?window ?band ?record_share ?validate
    ?step_budget () =
  fst
    (run_internal ~trace ~policy ~capacity ?warmup ?window ?band ?record_share
       ?validate ?step_budget ~log:false ())

let run_logged ~trace ~policy ~capacity ?window () =
  match
    run_internal ~trace ~policy ~capacity ?window ~validate:true ~log:true ()
  with
  | result, Some decisions -> (result, decisions)
  | _, None -> assert false

let recount ~trace ~decisions ?window ?band () =
  let total = ref 0 in
  Array.iteri
    (fun now _ ->
      if now > 0 then begin
        let cache = decisions.(now - 1) in
        let r_t, s_t = Trace.arrivals trace now in
        total :=
          !total
          + matches_in_cache ?window ?band ~now cache r_t
          + matches_in_cache ?window ?band ~now cache s_t
      end)
    decisions;
  !total
