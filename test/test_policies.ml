open Ssj_stream
open Ssj_core
open Helpers

let tup side value arrival = Tuple.make ~side ~value ~arrival

let test_keep_top () =
  let a = tup Tuple.R 1 0 and b = tup Tuple.S 2 1 and c = tup Tuple.R 3 2 in
  let score t = float_of_int t.Tuple.value in
  let kept = Policy.keep_top ~capacity:2 ~score [ a; b; c ] in
  check_bool "keeps top two" true
    (List.exists (Tuple.equal c) kept && List.exists (Tuple.equal b) kept);
  check_int "size" 2 (List.length kept);
  check_int "capacity 0" 0
    (List.length (Policy.keep_top ~capacity:0 ~score [ a ]))

let test_keep_top_tiebreak () =
  let old_t = tup Tuple.R 5 0 and new_t = tup Tuple.S 5 9 in
  let kept =
    Policy.keep_top ~capacity:1 ~score:(fun _ -> 1.0) [ old_t; new_t ]
  in
  check_bool "newer preferred" true (List.exists (Tuple.equal new_t) kept)

let test_validate_selection () =
  let cached = [ tup Tuple.R 1 0 ] and arrivals = [ tup Tuple.S 2 1 ] in
  let ok sel = Policy.validate_join_selection ~cached ~arrivals ~capacity:1 sel in
  check_bool "valid" true (ok [ tup Tuple.S 2 1 ] = Ok ());
  check_bool "oversize rejected" true (ok (cached @ arrivals) <> Ok ());
  check_bool "stranger rejected" true (ok [ tup Tuple.R 9 5 ] <> Ok ());
  check_bool "duplicate rejected" true
    (Policy.validate_join_selection ~cached ~arrivals ~capacity:3
       [ tup Tuple.R 1 0; tup Tuple.R 1 0 ]
    <> Ok ())

let run_policy policy ~capacity steps =
  (* steps: list of (r_value, s_value); returns final cache. *)
  let cache = ref [] in
  List.iteri
    (fun now (rv, sv) ->
      let arrivals = [ tup Tuple.R rv now; tup Tuple.S sv now ] in
      cache :=
        policy.Policy.select ~now ~cached:!cache ~arrivals ~capacity)
    steps;
  !cache

let test_rand_respects_capacity () =
  let policy = Baselines.rand ~rng:(rng 5) () in
  let cache =
    run_policy policy ~capacity:3 [ (1, 2); (3, 4); (5, 6); (7, 8) ]
  in
  check_int "capacity respected" 3 (List.length cache)

let test_rand_discards_dead_first () =
  (* lifetime: only value >= 100 lives. *)
  let lifetime = Baselines.Fn (fun ~now:_ (t : Tuple.t) -> if t.Tuple.value >= 100 then 5 else 0) in
  let policy = Baselines.rand ~rng:(rng 5) ~lifetime () in
  let cache = run_policy policy ~capacity:2 [ (100, 1); (2, 101) ] in
  let values = List.map (fun t -> t.Tuple.value) cache |> List.sort compare in
  Alcotest.(check (list int)) "live tuples survive" [ 100; 101 ] values

let test_prob_prefers_frequent_partner_values () =
  let policy = Baselines.prob () in
  (* R keeps producing 7; an S tuple with value 7 should be retained over
     an S tuple with value 8. *)
  let cache =
    run_policy policy ~capacity:1
      [ (7, 7); (7, 8); (7, 9) ]
  in
  (match cache with
  | [ t ] -> check_int "kept the popular value" 7 t.Tuple.value
  | _ -> Alcotest.fail "expected a single cached tuple");
  (* And it must be the S tuple (joins future R arrivals). *)
  (match cache with
  | [ t ] -> check_bool "S side" true (t.Tuple.side = Tuple.S)
  | _ -> ())

let test_life_weighs_lifetime () =
  (* Two S tuples whose values are equally frequent in R's history; LIFE
     must keep the one with the longer remaining lifetime. *)
  let lifetime = Baselines.Fn (fun ~now:_ (t : Tuple.t) -> t.Tuple.value) in
  let policy = Baselines.life ~lifetime () in
  let cache = run_policy policy ~capacity:1 [ (3, 3); (9, 9); (3, 3) ] in
  (match cache with
  | [ t ] ->
    check_bool "longer lifetime wins" true (t.Tuple.value = 9 || t.Tuple.value = 3)
  | _ -> Alcotest.fail "expected one tuple");
  (* Deterministic check with explicit frequencies: after R history
     [3;9;3], value 3 has count 2, value 9 count 1; lifetimes 3 vs 9:
     scores 6 vs 9 -> keep 9. *)
  (match cache with
  | [ t ] -> check_int "LIFE keeps 9" 9 t.Tuple.value
  | _ -> ())

let test_prob_model_is_total_preorder () =
  let policy =
    Baselines.prob_model
      ~partner_prob:(fun t -> if t.Tuple.value = 1 then 0.9 else 0.1)
      ()
  in
  let cache = run_policy policy ~capacity:1 [ (1, 2); (2, 1) ] in
  (match cache with
  | [ t ] -> check_int "highest model probability kept" 1 t.Tuple.value
  | _ -> Alcotest.fail "expected one tuple")

(* --- classic caching policies ---------------------------------------- *)

let run_cache policy ~capacity reference =
  let result =
    Ssj_engine.Cache_sim.run ~reference ~policy ~capacity ~validate:true ()
  in
  result.Ssj_engine.Cache_sim.hits

let test_lru_sequence () =
  (* Classic LRU trace: A B C A with capacity 2 -> A misses again? No:
     A B C evicts A (LRU), so final A misses: 0 hits. A B A C A:
     A(m) B(m) A(h) C(m, evict B) A(h). *)
  let to_ref = Array.of_list in
  check_int "ABCA" 0 (run_cache (Classic.lru ()) ~capacity:2 (to_ref [ 1; 2; 3; 1 ]));
  check_int "ABACA" 2
    (run_cache (Classic.lru ()) ~capacity:2 (to_ref [ 1; 2; 1; 3; 1 ]))

let test_lfu_keeps_heavy_hitters () =
  (* Value 1 referenced often; LFU must not evict it for one-off values. *)
  let reference = [| 1; 1; 1; 2; 3; 1; 4; 1; 5; 1 |] in
  let hits = run_cache (Classic.lfu ()) ~capacity:2 reference in
  (* 1 hits on each re-reference after the first: 5 hits; the singletons
     always miss. *)
  check_int "heavy hitter stays" 5 hits

let test_lfd_is_optimal_on_small_traces () =
  (* LFD vs exhaustive optimum on random small traces. *)
  let r = rng 77 in
  for _ = 1 to 25 do
    let n = 8 + Ssj_prob.Rng.int r 5 in
    let reference =
      Array.init n (fun _ -> Ssj_prob.Rng.int r 4)
    in
    let capacity = 1 + Ssj_prob.Rng.int r 2 in
    let lfd_hits = run_cache (Classic.lfd ~reference) ~capacity reference in
    (* Brute force: maximum hits over all eviction choices. *)
    let rec best t cache =
      if t >= Array.length reference then 0
      else begin
        let v = reference.(t) in
        if List.mem v cache then 1 + best (t + 1) cache
        else begin
          let with_insert =
            if List.length cache < capacity then best (t + 1) (v :: cache)
            else
              List.fold_left
                (fun acc evict ->
                  Stdlib.max acc
                    (best (t + 1) (v :: List.filter (fun x -> x <> evict) cache)))
                min_int cache
          in
          Stdlib.max with_insert (best (t + 1) cache)
        end
      end
    in
    let opt = best 0 [] in
    if lfd_hits <> opt then
      Alcotest.failf "LFD %d != OPT %d on %s (k=%d)" lfd_hits opt
        (String.concat ";" (Array.to_list (Array.map string_of_int reference)))
        capacity
  done

let test_lruk_falls_back_to_lru_order () =
  (* With k=2, a value referenced only once ranks below values referenced
     twice. Trace: 1 1 2 3 1 with capacity 2: when 3 arrives, cache {1,2};
     1 has two refs, 2 has one -> evict 2. Then 1 hits. *)
  let hits = run_cache (Classic.lruk ~k:2) ~capacity:2 [| 1; 1; 2; 3; 1 |] in
  check_int "evicts the single-reference page" 2 hits

let test_working_set () =
  (* tau = 2: value 1 is re-referenced within tau and must survive; the
     one-shot values fall out of the working set. *)
  let hits =
    run_cache (Classic.working_set ~tau:2) ~capacity:2 [| 1; 2; 1; 3; 1 |]
  in
  check_int "working-set member survives" 2 hits

let test_working_set_degenerates_to_lru () =
  (* With a huge tau everything is in the working set: WS == LRU. *)
  let reference = Array.init 60 (fun i -> (i * i) mod 7) in
  let ws = run_cache (Classic.working_set ~tau:10_000) ~capacity:3 reference in
  let lru = run_cache (Classic.lru ()) ~capacity:3 reference in
  check_int "WS(inf) = LRU" lru ws

let test_clock_basic () =
  (* CLOCK approximates LRU: a hot value must survive one-shot traffic. *)
  let hits =
    run_cache (Classic.clock ()) ~capacity:2 [| 1; 1; 2; 1; 3; 1; 4; 1 |]
  in
  check_bool "hot value mostly hits" true (hits >= 3)

let test_clock_capacity_respected () =
  let r = rng 4 in
  let reference = Array.init 200 (fun _ -> Ssj_prob.Rng.int r 10) in
  (* validate:true inside run_cache checks the size invariant per step. *)
  let hits = run_cache (Classic.clock ()) ~capacity:3 reference in
  check_bool "some hits" true (hits > 0)

let test_lfu_model_prefers_probable () =
  let prob v = if v = 1 then 0.9 else 0.01 in
  let policy = Classic.lfu_model ~prob in
  let hits = run_cache policy ~capacity:1 [| 1; 2; 1; 3; 1 |] in
  (* Value 1 is never evicted once cached: hits at steps 3 and 5. *)
  check_int "model-probable value kept" 2 hits

let prop_keep_top_size_and_membership =
  qcheck "keep_top returns min(capacity, n) highest-scored candidates"
    QCheck2.Gen.(
      let* n = int_range 0 15 in
      let* capacity = int_range 0 8 in
      let* scores = list_repeat n (float_range (-5.0) 5.0) in
      return (capacity, scores))
    (fun (capacity, scores) ->
      let candidates =
        List.mapi (fun i _ -> tup Tuple.R i i) scores
      in
      let score t = List.nth scores t.Tuple.value in
      let kept = Policy.keep_top ~capacity ~score candidates in
      let expected_size = min capacity (List.length candidates) in
      List.length kept = expected_size
      && (* every kept tuple scores >= every dropped tuple *)
      List.for_all
        (fun k ->
          List.for_all
            (fun c ->
              List.exists (Tuple.equal c) kept || score k >= score c)
            candidates)
        kept)

let suite =
  [
    Alcotest.test_case "keep_top" `Quick test_keep_top;
    prop_keep_top_size_and_membership;
    Alcotest.test_case "keep_top tiebreak" `Quick test_keep_top_tiebreak;
    Alcotest.test_case "selection validation" `Quick test_validate_selection;
    Alcotest.test_case "RAND capacity" `Quick test_rand_respects_capacity;
    Alcotest.test_case "RAND window-awareness" `Quick
      test_rand_discards_dead_first;
    Alcotest.test_case "PROB history frequencies" `Quick
      test_prob_prefers_frequent_partner_values;
    Alcotest.test_case "LIFE lifetime weighting" `Quick
      test_life_weighs_lifetime;
    Alcotest.test_case "PROB-model" `Quick test_prob_model_is_total_preorder;
    Alcotest.test_case "LRU" `Quick test_lru_sequence;
    Alcotest.test_case "LFU" `Quick test_lfu_keeps_heavy_hitters;
    Alcotest.test_case "LFD matches brute force" `Slow
      test_lfd_is_optimal_on_small_traces;
    Alcotest.test_case "LRU-k" `Quick test_lruk_falls_back_to_lru_order;
    Alcotest.test_case "Working Set" `Quick test_working_set;
    Alcotest.test_case "WS(inf) = LRU" `Quick
      test_working_set_degenerates_to_lru;
    Alcotest.test_case "CLOCK hot value" `Quick test_clock_basic;
    Alcotest.test_case "CLOCK invariants" `Quick test_clock_capacity_respected;
    Alcotest.test_case "A0-style model LFU" `Quick
      test_lfu_model_prefers_probable;
  ]
