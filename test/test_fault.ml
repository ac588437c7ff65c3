(* Fault-injection combinators: zero-severity identity (QCheck, with and
   without the policy's fast step), per-kind behaviour at rate 1.0,
   determinism, regime splices. *)

open Ssj_prob
open Ssj_stream
open Ssj_core
open Ssj_engine
open Ssj_workload
module Fault = Ssj_fault.Fault

let tower = Config.tower ()

let tower_trace ~length ~seed =
  let r, s = Config.predictors tower in
  Trace.generate ~r ~s ~rng:(Rng.create seed) ~length

let prob_policy () = Baselines.prob ~lifetime:(Config.lifetime tower) ()

let run_counted ?(strip_fast = false) ~trace ~capacity () =
  let policy = prob_policy () in
  let policy = if strip_fast then { policy with Policy.fast = None } else policy in
  (Join_sim.run ~trace ~policy ~capacity ~warmup:(4 * capacity) ())
    .Join_sim
    .counted_results

(* Generator of provably-inert kinds: zero or negative rates, plus the
   degenerate burst/stall lengths [is_identity] also recognises. *)
let inert_kind_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun r -> Fault.Drop { rate = -.r }) (float_bound_inclusive 1.0);
        return (Fault.Duplicate { rate = 0.0 });
        map (fun len -> Fault.Burst { rate = 0.0; len }) (int_range 0 20);
        return (Fault.Burst { rate = 0.9; len = 1 });
        map (fun len -> Fault.Stall { rate = 0.0; len }) (int_range 0 20);
        return (Fault.Stall { rate = 0.9; len = 0 });
        map (fun amp -> Fault.Noise { rate = 0.0; amp }) (int_range 0 8);
      ])

let inert_spec_gen =
  QCheck2.Gen.(
    map2
      (fun kinds seed -> { Fault.kinds; seed })
      (list_size (int_range 0 5) inert_kind_gen)
      (int_range 0 1000))

let values_gen =
  QCheck2.Gen.(array_size (int_range 1 80) (int_range (-40) 40))

let zero_rate_values_identity =
  Helpers.qcheck ~count:300 "inert spec leaves every value sequence intact"
    QCheck2.Gen.(pair inert_spec_gen values_gen)
    (fun (spec, values) ->
      Fault.is_identity spec
      && Fault.apply_side spec ~side:Tuple.R values = values
      && Fault.apply_side spec ~side:Tuple.S values = values)

let zero_rate_sim_identity =
  (* A zero-severity fault config is bit-identical to the unperturbed
     run, both through the policy's [fast] step and, with [fast]
     stripped, through the engine's [select] adapter. *)
  Helpers.qcheck ~count:15 "inert spec: bit-identical sim on both join paths"
    QCheck2.Gen.(pair inert_spec_gen (int_range 0 1000))
    (fun (spec, seed) ->
      let trace = tower_trace ~length:200 ~seed in
      let dirty = Fault.apply spec trace in
      let capacity = 8 in
      run_counted ~trace ~capacity () = run_counted ~trace:dirty ~capacity ()
      && run_counted ~strip_fast:true ~trace ~capacity ()
         = run_counted ~strip_fast:true ~trace:dirty ~capacity ())

let test_drop_all () =
  let spec = { Fault.kinds = [ Fault.Drop { rate = 1.0 } ]; seed = 1 } in
  let out = Fault.apply_side spec ~side:Tuple.R [| 1; 2; 3; 4 |] in
  Helpers.check_int "length preserved" 4 (Array.length out);
  Array.iter
    (fun v -> Helpers.check_bool "all silence" true (Fault.is_silence v))
    out;
  let distinct = List.sort_uniq compare (Array.to_list out) in
  Helpers.check_int "sentinels pairwise distinct" 4 (List.length distinct)

let test_duplicate_all () =
  let spec = { Fault.kinds = [ Fault.Duplicate { rate = 1.0 } ]; seed = 1 } in
  let out = Fault.apply_side spec ~side:Tuple.S [| 7; 8; 9; 10 |] in
  Alcotest.(check (array int)) "each tuple delivered twice, tail cut"
    [| 7; 7; 8; 8 |] out

let test_burst_all () =
  let spec =
    { Fault.kinds = [ Fault.Burst { rate = 1.0; len = 3 } ]; seed = 1 }
  in
  let out = Fault.apply_side spec ~side:Tuple.R [| 1; 2; 3; 4; 5; 6 |] in
  Alcotest.(check (array int)) "hot keys flood, displaced consumed"
    [| 1; 1; 1; 4; 4; 4 |] out

let test_stall_all () =
  let spec =
    { Fault.kinds = [ Fault.Stall { rate = 1.0; len = 2 } ]; seed = 1 }
  in
  let out = Fault.apply_side spec ~side:Tuple.R [| 5; 6; 7; 8; 9; 10 |] in
  Helpers.check_int "length preserved" 6 (Array.length out);
  List.iter
    (fun i ->
      Helpers.check_bool
        (Printf.sprintf "position %d is silence" i)
        true
        (Fault.is_silence out.(i)))
    [ 0; 1; 3; 4 ];
  Helpers.check_int "first real tuple shifted to 2" 5 out.(2);
  Helpers.check_int "second real tuple shifted to 5" 6 out.(5)

let test_noise_bounded () =
  let amp = 4 in
  let spec =
    { Fault.kinds = [ Fault.Noise { rate = 1.0; amp } ]; seed = 3 }
  in
  let values = Array.init 200 (fun i -> i - 100) in
  let out = Fault.apply_side spec ~side:Tuple.S values in
  Helpers.check_int "length preserved" 200 (Array.length out);
  Array.iteri
    (fun i v ->
      Helpers.check_bool "within +/- amp" true (abs (v - values.(i)) <= amp))
    out

let test_deterministic () =
  let spec =
    {
      Fault.kinds =
        [
          Fault.Drop { rate = 0.1 };
          Fault.Duplicate { rate = 0.1 };
          Fault.Burst { rate = 0.05; len = 4 };
          Fault.Stall { rate = 0.05; len = 3 };
          Fault.Noise { rate = 0.3; amp = 2 };
        ];
      seed = 11;
    }
  in
  let trace = tower_trace ~length:300 ~seed:5 in
  let a = Fault.apply spec trace and b = Fault.apply spec trace in
  Alcotest.(check (array int)) "R deterministic" a.Trace.r_values b.Trace.r_values;
  Alcotest.(check (array int)) "S deterministic" a.Trace.s_values b.Trace.s_values;
  (* A different seed must actually perturb differently. *)
  let c = Fault.apply { spec with Fault.seed = 12 } trace in
  Helpers.check_bool "seed changes the realisation" false
    (a.Trace.r_values = c.Trace.r_values
    && a.Trace.s_values = c.Trace.s_values)

let test_sentinels_never_join () =
  (* A drop-heavy dirty trace must never out-produce the clean one:
     sentinels join nothing. *)
  let trace = tower_trace ~length:400 ~seed:9 in
  let spec = { Fault.kinds = [ Fault.Drop { rate = 0.3 } ]; seed = 2 } in
  let dirty = Fault.apply spec trace in
  let clean = run_counted ~trace ~capacity:8 () in
  let dropped = run_counted ~trace:dirty ~capacity:8 () in
  Helpers.check_bool
    (Printf.sprintf "dropped (%d) <= clean (%d)" dropped clean)
    true (dropped <= clean)

let test_splice () =
  let before = Trace.of_values ~r:[| 1; 2; 3; 4 |] ~s:[| 5; 6; 7; 8 |] in
  let after = Trace.of_values ~r:[| 9; 9; 9; 9 |] ~s:[| 0; 0; 0; 0 |] in
  let t = Fault.splice ~at:2 ~before ~after in
  Alcotest.(check (array int)) "R spliced" [| 1; 2; 9; 9 |] t.Trace.r_values;
  Alcotest.(check (array int)) "S spliced" [| 5; 6; 0; 0 |] t.Trace.s_values;
  Alcotest.check_raises "length mismatch rejected"
    (Invalid_argument "Fault.splice: trace lengths differ") (fun () ->
      ignore (Fault.splice ~at:1 ~before ~after:(tower_trace ~length:3 ~seed:1)))

let test_generate_switched () =
  let length = 120 in
  let mk () = Config.predictors tower in
  let r, s = mk () and r2, s2 = Config.predictors (Config.floor ()) in
  let t =
    Fault.generate_switched ~r ~s ~r_after:r2 ~s_after:s2 ~at:(length / 2)
      ~rng:(Rng.create 42) ~length
  in
  Helpers.check_int "length preserved" length (Trace.length t);
  (* The prefix is exactly what the clean generator (same rng protocol)
     produces: splitting the same root twice reproduces the before
     trace. *)
  let rng = Rng.create 42 in
  let rng_before = Rng.split rng in
  let r, s = mk () in
  let clean = Trace.generate ~r ~s ~rng:rng_before ~length in
  Alcotest.(check (array int)) "prefix from the pre-switch model"
    (Array.sub clean.Trace.r_values 0 (length / 2))
    (Array.sub t.Trace.r_values 0 (length / 2))

let test_labels () =
  Alcotest.(check string) "clean" "clean" (Fault.spec_label Fault.identity);
  Alcotest.(check string) "describe" "drop(rate=0.05)"
    (Fault.describe (Fault.Drop { rate = 0.05 }));
  Alcotest.(check string) "kind label" "stall"
    (Fault.kind_label (Fault.Stall { rate = 0.1; len = 3 }));
  Alcotest.(check string) "composite"
    "drop(rate=0.1)+noise(rate=0.2,amp=3)"
    (Fault.spec_label
       {
         Fault.kinds =
           [ Fault.Drop { rate = 0.1 }; Fault.Noise { rate = 0.2; amp = 3 } ];
         seed = 0;
       })

let suite =
  [
    zero_rate_values_identity;
    zero_rate_sim_identity;
    Alcotest.test_case "drop rate 1: all silence, distinct" `Quick test_drop_all;
    Alcotest.test_case "duplicate rate 1: doubled, cut" `Quick
      test_duplicate_all;
    Alcotest.test_case "burst rate 1: hot-key floods" `Quick test_burst_all;
    Alcotest.test_case "stall rate 1: silence shifts arrivals" `Quick
      test_stall_all;
    Alcotest.test_case "noise rate 1: bounded perturbation" `Quick
      test_noise_bounded;
    Alcotest.test_case "composite spec is deterministic in seed" `Quick
      test_deterministic;
    Alcotest.test_case "drops never increase results" `Quick
      test_sentinels_never_join;
    Alcotest.test_case "splice: regime switch at t*" `Quick test_splice;
    Alcotest.test_case "generate_switched: clean prefix, new suffix" `Quick
      test_generate_switched;
    Alcotest.test_case "labels" `Quick test_labels;
  ]
