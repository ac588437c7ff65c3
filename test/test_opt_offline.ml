open Ssj_stream
open Ssj_core
open Helpers

let trace r s = Trace.of_values ~r:(Array.of_list r) ~s:(Array.of_list s)

let test_no_matches () =
  let t = trace [ 1; 2; 3 ] [ 4; 5; 6 ] in
  check_int "nothing joins" 0 (Opt_offline.max_results ~trace:t ~capacity:2 ())

let test_single_match () =
  (* S emits value 7 at t=0; R emits 7 at t=2: caching the S tuple wins
     one result.  Filler values are all distinct so nothing else joins. *)
  let t = trace [ -1; -2; 7 ] [ 7; -3; -4 ] in
  check_int "one result" 1 (Opt_offline.max_results ~trace:t ~capacity:1 ())

let test_same_time_not_counted () =
  (* Matching values arriving at the same step are excluded. *)
  let t = trace [ 5; 1 ] [ 5; 2 ] in
  check_int "same-time excluded" 0 (Opt_offline.max_results ~trace:t ~capacity:2 ())

let test_repeated_matches_accumulate () =
  (* One cached S tuple joins three future R arrivals. *)
  let t = trace [ 0; 7; 7; 7 ] [ 7; 1; 2; 3 ] in
  check_int "three results" 3 (Opt_offline.max_results ~trace:t ~capacity:1 ())

let test_capacity_conflict () =
  (* Two S tuples want the one slot; each would earn one result at the
     same later time: only one can be held. *)
  let t = trace [ -1; -2; 8; 9 ] [ 8; 9; -3; -4 ] in
  check_int "capacity 1" 1 (Opt_offline.max_results ~trace:t ~capacity:1 ());
  check_int "capacity 2" 2 (Opt_offline.max_results ~trace:t ~capacity:2 ())

let test_slot_reuse () =
  (* The slot can be reused after a tuple's last match: S(8)@0 matches at
     t=1; S(9)@1 matches at t=3 -> both fit in one slot. *)
  let t = trace [ -1; 8; -2; 9 ] [ 8; 9; -3; -4 ] in
  check_int "sequential reuse" 2 (Opt_offline.max_results ~trace:t ~capacity:1 ())

let test_eviction_vs_holding () =
  (* Holding S(8) through both its matches (t=1, t=3) blocks S(9) whose
     only match is t=2; with capacity 1 the best is hold S(8): 2 results. *)
  let t = trace [ -1; 8; 9; 8 ] [ 8; 9; -2; -3 ] in
  check_int "hold the double matcher" 2
    (Opt_offline.max_results ~trace:t ~capacity:1 ());
  check_int "capacity 2 takes all three" 3
    (Opt_offline.max_results ~trace:t ~capacity:2 ())

let test_warmup_start () =
  let t = trace [ -1; 7; 7 ] [ 7; -2; -3 ] in
  check_int "all counted" 2 (Opt_offline.max_results_from ~trace:t ~capacity:1 ~start:0 ());
  check_int "first match in warmup" 1
    (Opt_offline.max_results_from ~trace:t ~capacity:1 ~start:2 ());
  check_int "all in warmup" 0
    (Opt_offline.max_results_from ~trace:t ~capacity:1 ~start:3 ())

let test_unreached_potentials () =
  (* Band 1.  Every join here is worth taking and the four tuples that
     carry them (S3@0, R5@1, S4@2, S3@3) fit in capacity 4: R5@1 joins
     S4@2 and S6@4, and S3@0, S4@2 and S3@3 each join R4@4 — 5 results.
     An early-exit Dijkstra that leaves the potentials of never-reached
     nodes behind finds a non-shortest path later and stops at 4. *)
  let t = trace [ 0; 5; 0; 0; 4 ] [ 3; 8; 4; 3; 6 ] in
  check_int "optimum" 5
    (Opt_offline.max_results ~band:1 ~trace:t ~capacity:4 ())

(* Brute-force DP over all replacement sequences on tiny instances. *)
let brute_force ~trace ~capacity =
  let tlen = Trace.length trace in
  let module TS = Set.Make (Tuple) in
  let matches cache (arr : Tuple.t) =
    TS.fold
      (fun (c : Tuple.t) acc ->
        if c.Tuple.side <> arr.Tuple.side && c.Tuple.value = arr.Tuple.value
        then acc + 1
        else acc)
      cache 0
  in
  let rec subsets_of_size k items =
    if k = 0 then [ [] ]
    else begin
      match items with
      | [] -> [ [] ]
      | x :: rest ->
        List.map (fun s -> x :: s) (subsets_of_size (k - 1) rest)
        @ (if List.length rest >= k then subsets_of_size k rest else [])
    end
  in
  let rec go now cache =
    if now >= tlen then 0
    else begin
      let r_t, s_t = Trace.arrivals trace now in
      let produced = matches cache r_t + matches cache s_t in
      let candidates = r_t :: s_t :: TS.elements cache in
      let options =
        subsets_of_size (min capacity (List.length candidates)) candidates
      in
      let best =
        List.fold_left
          (fun acc sel -> Stdlib.max acc (go (now + 1) (TS.of_list sel)))
          min_int options
      in
      produced + best
    end
  in
  go 0 TS.empty

let gen_tiny_trace =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let* r = list_repeat n (int_range 0 2) in
    let* s = list_repeat n (int_range 0 2) in
    let* capacity = int_range 1 2 in
    return (trace r s, capacity))

let prop_matches_brute_force =
  qcheck ~count:150 "OPT-offline equals exhaustive DP" gen_tiny_trace
    (fun (t, capacity) ->
      Opt_offline.max_results ~trace:t ~capacity ()
      = brute_force ~trace:t ~capacity)

let prop_dominates_online_policies =
  qcheck ~count:40 "OPT-offline >= every online policy" gen_tiny_trace
    (fun (t, capacity) ->
      let opt = Opt_offline.max_results ~trace:t ~capacity () in
      let policies =
        [
          Baselines.rand ~rng:(rng 1) ();
          Baselines.prob ();
        ]
      in
      List.for_all
        (fun policy ->
          let result =
            Ssj_engine.Join_sim.run ~trace:t ~policy ~capacity ()
          in
          result.Ssj_engine.Join_sim.total_results <= opt)
        policies)

let prop_monotone_in_capacity =
  qcheck ~count:60 "OPT-offline monotone in capacity" gen_tiny_trace
    (fun (t, capacity) ->
      Opt_offline.max_results ~trace:t ~capacity ()
      <= Opt_offline.max_results ~trace:t ~capacity:(capacity + 1) ())

let prop_curve_matches_pointwise =
  qcheck ~count:60 "capacity curve = per-capacity solves" gen_tiny_trace
    (fun (t, _) ->
      let capacities = [ 1; 2; 3 ] in
      let curve =
        Opt_offline.max_results_curve ~trace:t ~capacities ~start:0 ()
      in
      List.for_all
        (fun (c, v) ->
          v = Opt_offline.max_results_from ~trace:t ~capacity:c ~start:0 ())
        curve)

let test_acyclic_init_agrees () =
  (* The DAG-potential initialisation must not change results. *)
  let r = rng 41 in
  for _ = 1 to 10 do
    let n = 6 in
    let tr =
      trace
        (List.init n (fun _ -> Ssj_prob.Rng.int r 5))
        (List.init n (fun _ -> Ssj_prob.Rng.int r 5))
    in
    (* max_results uses acyclic:true internally; compare against the
       brute-force oracle at capacity 2. *)
    check_int "acyclic = brute force"
      (brute_force ~trace:tr ~capacity:2)
      (Opt_offline.max_results ~trace:tr ~capacity:2 ())
  done

let test_max_hits_belady () =
  let reference = [| 1; 2; 3; 1; 2; 3; 1; 2; 3 |] in
  (* Capacity 2, cyclic thrash: pinning {1,2} and bypassing 3 gives 4
     hits, which is optimal. *)
  check_int "belady hits" 4 (Opt_offline.max_hits ~reference ~capacity:2);
  check_int "full capacity" 6 (Opt_offline.max_hits ~reference ~capacity:3)

let suite =
  [
    Alcotest.test_case "no matches" `Quick test_no_matches;
    Alcotest.test_case "single match" `Quick test_single_match;
    Alcotest.test_case "same-time excluded" `Quick test_same_time_not_counted;
    Alcotest.test_case "repeated matches" `Quick
      test_repeated_matches_accumulate;
    Alcotest.test_case "capacity conflicts" `Quick test_capacity_conflict;
    Alcotest.test_case "slot reuse" `Quick test_slot_reuse;
    Alcotest.test_case "eviction vs holding" `Quick test_eviction_vs_holding;
    Alcotest.test_case "warm-up accounting" `Quick test_warmup_start;
    Alcotest.test_case "unreached nodes keep valid potentials" `Quick
      test_unreached_potentials;
    prop_matches_brute_force;
    prop_dominates_online_policies;
    prop_monotone_in_capacity;
    prop_curve_matches_pointwise;
    Alcotest.test_case "acyclic potentials agree" `Quick
      test_acyclic_init_agrees;
    Alcotest.test_case "Belady hit counts" `Quick test_max_hits_belady;
  ]
