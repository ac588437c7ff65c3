open Ssj_stream

(* Per-uid state packed into one word: [stamp lsl 2 | in_cache lsl 1 |
   counted].  "counted" means in the cache AND inside the window, i.e.
   contributing to the value-count tables.  One flat array keeps the
   per-step diff down to a single load/store per tuple. *)
type t = {
  band : int;
  window : Window.t option;
  counts_r : Ssj_prob.Itab.t; (* value -> # counted R tuples *)
  counts_s : Ssj_prob.Itab.t;
  mutable state : int array;
  mutable gen : int;
  expiry : Tuple.t Queue.t; (* counted tuples in arrival order; window only *)
}

let create ?window ?(band = 0) ~length () =
  if band < 0 then invalid_arg "Join_index.create: negative band";
  (* uid = 2·arrival + side bit, so a trace of [length] steps stays below
     2·length + 2. *)
  let cap = max 64 ((2 * length) + 2) in
  {
    band;
    window;
    counts_r = Ssj_prob.Itab.create ~size:256 ();
    counts_s = Ssj_prob.Itab.create ~size:256 ();
    state = Array.make cap 0;
    gen = 0;
    expiry = Queue.create ();
  }

let counts t = function Tuple.R -> t.counts_r | Tuple.S -> t.counts_s

(* Conformance fault hook: shifts the band probe window by a constant,
   turning the O(band) counting path into an off-by-[skew] fast-path bug
   on demand.  Zero (the default) is the identity; only the conformance
   suite and `sjoin check --inject` ever set it. *)
let probe_skew = ref 0

module Testhook = struct
  let set_band_probe_skew n = probe_skew := n
  let band_probe_skew () = !probe_skew
end

let grow t uid =
  if uid < 0 then invalid_arg "Join_index: negative uid";
  let cap = Array.length t.state in
  let cap' = max (uid + 1) (2 * cap) in
  let state = Array.make cap' 0 in
  Array.blit t.state 0 state 0 cap;
  t.state <- state

let rec expire t w ~now =
  if not (Queue.is_empty t.expiry) then begin
    let (tuple : Tuple.t) = Queue.peek t.expiry in
    if not (Window.inside w ~now tuple) then begin
      ignore (Queue.pop t.expiry);
      (let st = t.state in
       let w = Array.unsafe_get st tuple.uid in
       if w land 1 = 1 then begin
         Array.unsafe_set st tuple.uid (w lxor 1);
         Ssj_prob.Itab.decr (counts t tuple.side) tuple.value
       end);
      expire t w ~now
    end
  end

let matches t ~now (arrival : Tuple.t) =
  (match t.window with None -> () | Some w -> expire t w ~now);
  let tbl = counts t (Tuple.partner arrival.side) in
  if t.band = 0 then Ssj_prob.Itab.find_default tbl arrival.value 0
  else begin
    let skew = !probe_skew in
    let acc = ref 0 in
    for v = arrival.value - t.band + skew to arrival.value + t.band + skew do
      acc := !acc + Ssj_prob.Itab.find_default tbl v 0
    done;
    !acc
  end

(* Cache maintenance from the diff of two consecutive caches, each
   given as parallel uid/value int arrays (uid = 2·arrival + side bit).
   Pass 1 over the new cache restamps survivors with this generation and
   counts additions; additions are this step's arrivals, so entering the
   expiry queue in array order keeps it sorted by arrival time.  Pass 2
   over the previous cache uncounts anything not restamped. *)
let counts_bit t bit = if bit = 0 then t.counts_r else t.counts_s

let stamp_soa t tag (uids : int array) (values : int array) n =
  for i = 0 to n - 1 do
    let uid = Array.unsafe_get uids i in
    if uid < 0 || uid >= Array.length t.state then grow t uid;
    let st = t.state in
    let w = Array.unsafe_get st uid in
    if w land 2 = 0 then begin
      Array.unsafe_set st uid (tag lor 3);
      let value = Array.unsafe_get values i in
      Ssj_prob.Itab.add (counts_bit t (uid land 1)) value 1;
      match t.window with
      | Some _ -> Queue.push (Tuple.of_uid ~uid ~value) t.expiry
      | None -> ()
    end
    else Array.unsafe_set st uid (tag lor (w land 3))
  done

let sweep_soa t gen (uids : int array) (values : int array) n =
  for i = 0 to n - 1 do
    let uid = Array.unsafe_get uids i in
    let st = t.state in
    if uid >= 0 && uid < Array.length st then begin
      let w = Array.unsafe_get st uid in
      if w asr 2 <> gen then begin
        Array.unsafe_set st uid 0;
        if w land 1 = 1 then
          Ssj_prob.Itab.decr
            (counts_bit t (uid land 1))
            (Array.unsafe_get values i)
      end
    end
  done

let update_arrays t ~prev_uids ~prev_values ~prev_n ~next_uids ~next_values
    ~next_n =
  let gen = t.gen + 1 in
  t.gen <- gen;
  stamp_soa t (gen lsl 2) next_uids next_values next_n;
  sweep_soa t gen prev_uids prev_values prev_n

(* O(diff) maintenance for callers that know exactly what changed (a
   policy that reports its step diff): [insert] a newly cached arrival,
   [remove_id] an evicted cache member.  Interchangeable step-by-step
   with {!update_arrays} — the generation stamps the sweeps rely on stay
   consistent because [insert] writes stamp 0 and every stamped pass
   restamps survivors. *)
let insert t (tuple : Tuple.t) =
  let uid = tuple.uid in
  if uid < 0 || uid >= Array.length t.state then grow t uid;
  Array.unsafe_set t.state uid 3;
  Ssj_prob.Itab.add (counts t tuple.side) tuple.value 1;
  match t.window with Some _ -> Queue.push tuple t.expiry | None -> ()

let remove_id t ~uid ~value =
  let st = t.state in
  if uid >= 0 && uid < Array.length st then begin
    let w = Array.unsafe_get st uid in
    Array.unsafe_set st uid 0;
    (* Uncount only if still counted: window expiry may already have
       cleared the bit while the tuple sat in the cache. *)
    if w land 1 = 1 then Ssj_prob.Itab.decr (counts_bit t (uid land 1)) value
  end
