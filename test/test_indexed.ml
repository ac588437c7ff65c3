(* Properties of the optimised simulation core against its reference
   implementations: bounded selection vs full sort, the incremental join
   index vs the naive cache scan, the buffer fast path vs the list path,
   and the parallel runner vs sequential execution. *)

open Ssj_prob
open Ssj_stream
open Ssj_core
open Ssj_engine
open Ssj_workload
open Helpers

let tup side value arrival = Tuple.make ~side ~value ~arrival
let uids = List.map (fun t -> t.Tuple.uid)

(* --- keep_top vs keep_top_spec -------------------------------------- *)

(* Scores drawn from a small table so ties are frequent; candidates get
   distinct arrivals, so (score, newer uid first) is a total order and the
   two implementations must agree exactly.  Sizes up to 60 against
   capacities up to 12 exercise all three regimes: n <= capacity, the
   flat-sort path, and the bounded-heap path (n > 2 * capacity). *)
let score_table = [| Float.neg_infinity; 0.0; 0.0; 1.0; 2.5; 7.0 |]

let gen_keep_top =
  QCheck2.Gen.(
    pair (int_range 0 12)
      (list_size (int_range 0 60) (pair (int_range 0 5) bool)))

let keep_top_agrees (capacity, specs) =
  let candidates =
    List.mapi
      (fun i (s, side) ->
        (tup (if side then Tuple.R else Tuple.S) s i, score_table.(s)))
      specs
  in
  let tuples = List.map fst candidates in
  let score t = score_table.(t.Tuple.value) in
  let fast = Policy.keep_top ~capacity ~score tuples in
  let spec = Policy.keep_top_spec ~capacity ~score tuples in
  uids fast = uids spec

(* --- Join_index vs matches_in_cache --------------------------------- *)

(* Drive a random cache evolution (subset of cached + arrivals, capacity
   8) and check, at every step, that the incrementally maintained index
   counts exactly what a naive scan of the current cache counts — for
   both maintenance APIs the engine uses: the diffing [update_arrays] and
   the explicit [insert]/[remove_id] pair. *)
let gen_evolution =
  QCheck2.Gen.(
    quad (int_range 0 9999) (int_range 0 3) (int_range 0 2) (int_range 5 40))

let index_agrees (seed, wcode, band, steps) =
  let window = if wcode = 0 then None else Some (Window.create ~width:(3 * wcode)) in
  let by_update = Join_index.create ?window ~band ~length:steps () in
  let by_diff = Join_index.create ?window ~band ~length:steps () in
  let rng = Rng.create seed in
  let cache = ref [] in
  let ok = ref true in
  for now = 0 to steps - 1 do
    let r = tup Tuple.R (Rng.int rng 9 - 4) now in
    let s = tup Tuple.S (Rng.int rng 9 - 4) now in
    let agrees t =
      let naive = Join_sim.matches_in_cache ?window ~band ~now !cache t in
      Join_index.matches by_update ~now t = naive
      && Join_index.matches by_diff ~now t = naive
    in
    if not (agrees r && agrees s) then ok := false;
    let next =
      List.filteri
        (fun i _ -> i < 8)
        (List.filter (fun _ -> Rng.float rng 1.0 < 0.7) (!cache @ [ r; s ]))
    in
    let arrays l =
      ( Array.of_list (uids l),
        Array.of_list (List.map (fun t -> t.Tuple.value) l),
        List.length l )
    in
    let prev_uids, prev_values, prev_n = arrays !cache
    and next_uids, next_values, next_n = arrays next in
    Join_index.update_arrays by_update ~prev_uids ~prev_values ~prev_n
      ~next_uids ~next_values ~next_n;
    List.iter
      (fun t ->
        if not (List.exists (Tuple.equal t) !cache) then
          Join_index.insert by_diff t)
      next;
    List.iter
      (fun t ->
        if not (List.exists (Tuple.equal t) next) then
          Join_index.remove_id by_diff ~uid:t.Tuple.uid ~value:t.Tuple.value)
      !cache;
    cache := next
  done;
  !ok

(* --- fast path vs list path ----------------------------------------- *)

let tower = Config.tower ()

let tower_trace length seed =
  let r, s = Config.predictors tower in
  Trace.generate ~r ~s ~rng:(Rng.create seed) ~length

(* A policy's buffer [fast] step against its list [select], which the
   engine drives through its adapter once [fast] is stripped; both runs
   validate every step's selection and diff.  Fresh policy instances
   with the same seed draw the same randomness, so both executions must
   produce identical counts.  Capacity 1 keeps the candidate set above
   twice the capacity, covering the heap selection and the index's
   whole-buffer rescan.  The window row adds
   windowed HEEB over the TOWER predictors, whose per-step law table
   varies with Δt. *)
let test_fast_matches_list () =
  let trace = tower_trace 400 5 in
  let windowed_heeb window () =
    let r, s = Config.predictors tower in
    Sliding.heeb ~r ~s ~alpha:(Config.alpha tower) ~window ()
  in
  List.iter
    (fun (capacity, window, band) ->
      let lineup =
        Factory.trend_policies tower ~seed:11 ()
        @
        match window with
        | Some w -> [ ("HEEB-W", windowed_heeb w) ]
        | None -> []
      in
      List.iter
        (fun (name, mk) ->
          let run lifted =
            let p = mk () in
            Join_sim.run ~trace
              ~policy:(if lifted then { p with Policy.fast = None } else p)
              ~capacity ~warmup:40 ?window ~band ~validate:true ()
          in
          let fast = run false and slow = run true in
          let label =
            Printf.sprintf "%s cap=%d band=%d%s" name capacity band
              (match window with None -> "" | Some _ -> " win")
          in
          check_int (label ^ " total") slow.Join_sim.total_results
            fast.Join_sim.total_results;
          check_int (label ^ " counted") slow.Join_sim.counted_results
            fast.Join_sim.counted_results)
        lineup)
    [
      (10, None, 0);
      (1, None, 0);
      (8, Some (Window.create ~width:12), 1);
    ]

(* --- lifetime shortcut vs the general estimator ---------------------- *)

(* The baselines' scoring loops inline the first-order [Trend] death test
   (and skip its division at speed 1); the same estimator written as an
   [Fn] closure takes none of those shortcuts.  On TOWER traces RAND,
   PROB and LIFE must run bit-identically under either form, at the
   shipped speed 1 and at a divided speed. *)
let gen_lifetime_case =
  QCheck2.Gen.(
    quad (int_range 0 9999) (int_range 1 12) (int_range 1 3) (int_range 0 2))

let trend_matches_fn (seed, capacity, speed, which) =
  let trace = tower_trace 300 seed in
  let r_add, s_add =
    match Config.lifetime tower with
    | Baselines.Trend { r_add; s_add; _ } -> (r_add, s_add)
    | Baselines.Of_window _ | Baselines.Fn _ -> assert false
  in
  let trend = Baselines.Trend { r_add; s_add; speed } in
  let fn =
    Baselines.Fn
      (fun ~now (t : Tuple.t) ->
        let add = match t.Tuple.side with Tuple.R -> r_add | Tuple.S -> s_add in
        ((t.Tuple.value + add) / speed) - now)
  in
  let policy lifetime =
    match which with
    | 0 -> Baselines.rand ~rng:(Rng.create seed) ~lifetime ()
    | 1 -> Baselines.prob ~lifetime ()
    | _ -> Baselines.life ~lifetime ()
  in
  let run lifetime =
    Join_sim.run ~trace ~policy:(policy lifetime) ~capacity ~warmup:20 ()
  in
  run trend = run fn

(* --- parallel runner determinism ------------------------------------ *)

let test_parallel_map () =
  let input = Array.init 23 (fun i -> i) in
  let seq = Array.map (fun i -> (i * i) + 1) input in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "map jobs=%d" jobs)
        true
        (Parallel.map ~jobs (fun i -> (i * i) + 1) input = seq))
    [ 1; 2; 4 ];
  check_bool "exceptions propagate" true
    (match Parallel.map ~jobs:3 (fun i -> if i = 7 then failwith "boom" else i)
             input
     with
    | _ -> false
    | exception Failure msg -> msg = "boom")

let test_runner_deterministic () =
  let traces = Array.init 4 (fun i -> tower_trace 300 (100 + i)) in
  let capacity = 8 in
  let setup =
    { Runner.capacity; warmup = Runner.default_warmup ~capacity; window = None }
  in
  let run jobs =
    Runner.compare_joining ~setup ~traces
      ~policies:(Factory.trend_policies tower ~seed:3 ())
      ~include_opt:true ~jobs ()
  in
  let one = run 1 and four = run 4 in
  check_int "summary count" (List.length one) (List.length four);
  List.iter2
    (fun (a : Runner.summary) (b : Runner.summary) ->
      check_bool (a.Runner.label ^ " label") true
        (a.Runner.label = b.Runner.label);
      check_bool (a.Runner.label ^ " per_run") true
        (a.Runner.per_run = b.Runner.per_run))
    one four

let suite =
  [
    qcheck "keep_top = keep_top_spec" gen_keep_top keep_top_agrees;
    qcheck ~count:100 "Join_index = naive cache scan" gen_evolution
      index_agrees;
    Alcotest.test_case "fast path = list path" `Quick test_fast_matches_list;
    qcheck ~count:60 "Trend lifetime = equivalent Fn lifetime" gen_lifetime_case
      trend_matches_fn;
    Alcotest.test_case "Parallel.map = Array.map" `Quick test_parallel_map;
    Alcotest.test_case "runner deterministic across jobs" `Quick
      test_runner_deterministic;
  ]
