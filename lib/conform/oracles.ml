open Ssj_prob
open Ssj_model
open Ssj_stream
open Ssj_core
open Ssj_engine
open Ssj_workload

(* --- case generation ------------------------------------------------ *)

(* Small random cases: short traces over a narrow value domain (dense
   enough that band/window decisions actually collide), small caches.
   Deterministic in (seed, index) so failures are addressable. *)
let gen_case ?(force_band = false) ?(allow_window = true) ~seed i =
  let rng = Rng.create (seed + (7919 * i)) in
  let policy =
    List.nth Case.policy_names (Rng.int rng (List.length Case.policy_names))
  in
  let len = 4 + Rng.int rng 37 in
  let values () = Array.init len (fun _ -> Rng.int rng 17 - 8) in
  let band =
    if force_band then 1 + Rng.int rng 2
    else if Rng.bool rng then 0
    else Rng.int rng 3
  in
  let window =
    if allow_window && Rng.int rng 3 = 0 then Some (2 + Rng.int rng 9)
    else None
  in
  {
    Case.r_values = values ();
    s_values = values ();
    capacity = 1 + Rng.int rng 6;
    band;
    window;
    policy;
    seed = Rng.int rng 1_000_000;
  }

let describe_counts fast slow =
  Printf.sprintf "fast total=%d counted=%d, reference total=%d counted=%d"
    fast.Join_sim.total_results fast.Join_sim.counted_results
    slow.Ref_sim.total_results slow.Ref_sim.counted_results

(* --- Join_sim vs list-scan reference -------------------------------- *)

let join_sim_violation ~lifted case =
  let slow = Ref_sim.run_case case in
  let policy = Case.policy case in
  let fast =
    Join_sim.run ~trace:(Case.trace case)
      ~policy:(if lifted then { policy with Policy.fast = None } else policy)
      ~capacity:case.Case.capacity ~warmup:(Case.warmup case)
      ?window:(Case.window case) ~band:case.Case.band ~validate:lifted ()
  in
  if
    fast.Join_sim.total_results = slow.Ref_sim.total_results
    && fast.Join_sim.counted_results = slow.Ref_sim.counted_results
  then None
  else Some (describe_counts fast slow)

let join_sim_indexed =
  Check.of_violation ~name:"oracle:join-sim/indexed-vs-listscan"
    ~kind:Check.Oracle ~fast:"Join_sim.run (indexed, array-native when available)"
    ~reference:"Ref_sim naive list scan" ~gen:(fun ~seed i -> gen_case ~seed i)
    (join_sim_violation ~lifted:false)

(* The same engine loop driven through its [select] adapter ([fast]
   stripped), with every step's selection and diff validated. *)
let join_sim_lifted =
  Check.of_violation ~name:"oracle:join-sim/lifted-validated-vs-listscan"
    ~kind:Check.Oracle
    ~fast:"Join_sim.run ~validate:true, fast stripped (select adapter)"
    ~reference:"Ref_sim naive list scan" ~gen:(fun ~seed i -> gen_case ~seed i)
    (join_sim_violation ~lifted:true)

(* --- keep_top vs keep_top_spec -------------------------------------- *)

let tuples_equal a b =
  List.length a = List.length b && List.for_all2 Tuple.equal a b

let render_selection ts =
  String.concat ";"
    (List.map (fun (t : Tuple.t) -> string_of_int t.Tuple.uid) ts)

let keep_top_check =
  Check.make ~name:"oracle:keep-top/bounded-vs-sort" ~kind:Check.Oracle
    ~fast:"Policy.keep_top / Policy.select_top (bounded selection)"
    ~reference:"Policy.keep_top_spec (full stable sort)"
    (fun ~seed ~count ->
      let rng = Rng.create (seed + 17) in
      let sel = Policy.selector () in
      let failure = ref None in
      let i = ref 0 in
      while !failure = None && !i < count do
        let n = 1 + Rng.int rng 40 in
        let tuple k =
          Tuple.make
            ~side:(if Rng.bool rng then Tuple.R else Tuple.S)
            ~value:(Rng.int rng 9 - 4)
            ~arrival:k
        in
        let candidates = List.init n tuple in
        let capacity = Rng.int rng (n + 2) in
        (* Score families exercising ties: coarse buckets collapse many
           candidates onto equal scores, so the tie-break path decides. *)
        let modulus = 1 + Rng.int rng 4 in
        let score (t : Tuple.t) =
          float_of_int (((t.Tuple.value mod modulus) + modulus) mod modulus)
        in
        let spec = Policy.keep_top_spec ~capacity ~score candidates in
        let fast = Policy.keep_top ~capacity ~score candidates in
        if not (tuples_equal fast spec) then
          failure :=
            Some
              (Printf.sprintf "keep_top [%s] <> spec [%s] (cap %d, %d cands)"
                 (render_selection fast) (render_selection spec) capacity n)
        else begin
          let cached, arrivals =
            let k = Rng.int rng (n + 1) in
            (List.filteri (fun j _ -> j < k) candidates,
             List.filteri (fun j _ -> j >= k) candidates)
          in
          let merged =
            Policy.select_top sel ~capacity ~score ~cached ~arrivals
          in
          if not (tuples_equal merged spec) then
            failure :=
              Some
                (Printf.sprintf
                   "select_top [%s] <> spec [%s] (cap %d, %d cands)"
                   (render_selection merged) (render_selection spec) capacity
                   n)
        end;
        incr i
      done;
      match !failure with
      | None ->
        Check.Pass
          { cases = count; note = "bounded selection == full stable sort" }
      | Some detail -> Check.Fail { detail; case = None })

(* --- FlowExpect: warm handle vs fresh solves, Ssp vs Scaling --------- *)

let flow_expect_check =
  Check.make ~name:"oracle:flow-expect/warm-vs-fresh" ~kind:Check.Oracle
    ~fast:"Flow_expect.decide with a shared warm handle (Ssp)"
    ~reference:"fresh per-step solves; `Scaling backend cross-check"
    (fun ~seed ~count ->
      let reps = max 1 (count / 20) in
      let failure = ref None in
      let rep = ref 0 in
      while !failure = None && !rep < reps do
        let rng = Rng.create (seed + (104729 * !rep)) in
        let r0, s0 = Config.predictors (Config.tower ()) in
        let handle = Flow_expect.handle () in
        let rp = ref r0 and sp = ref s0 in
        let cached = ref [] in
        let now = ref 0 in
        while !failure = None && !now < 6 do
          let t = !now in
          (* Values near the TOWER trend so the expected benefits are
             non-trivial (far-off values make every plan worthless). *)
          let rv = t + Rng.int rng 7 - 3 and sv = t + 1 + Rng.int rng 9 - 4 in
          rp := Predictor.advance !rp [| rv |];
          sp := Predictor.advance !sp [| sv |];
          let arrivals =
            [
              Tuple.make ~side:Tuple.R ~value:rv ~arrival:t;
              Tuple.make ~side:Tuple.S ~value:sv ~arrival:t;
            ]
          in
          let decide ?solver ?handle () =
            Flow_expect.decide ?solver ?handle ~r:!rp ~s:!sp ~lookahead:3
              ~now:t ~cached:!cached ~arrivals ~capacity:2 ()
          in
          let warm = decide ~handle () in
          let fresh = decide () in
          let scaling = decide ~solver:`Scaling () in
          if
            not
              (tuples_equal
                 (List.sort Tuple.compare warm.Flow_expect.keep)
                 (List.sort Tuple.compare fresh.Flow_expect.keep))
            || warm.Flow_expect.expected_benefit
               <> fresh.Flow_expect.expected_benefit
          then
            failure :=
              Some
                (Printf.sprintf
                   "warm plan (keep [%s], benefit %.17g) <> fresh (keep \
                    [%s], benefit %.17g) at rep %d step %d"
                   (render_selection warm.Flow_expect.keep)
                   warm.Flow_expect.expected_benefit
                   (render_selection fresh.Flow_expect.keep)
                   fresh.Flow_expect.expected_benefit !rep t)
          else if
            Float.abs
              (warm.Flow_expect.expected_benefit
              -. scaling.Flow_expect.expected_benefit)
            > 1e-6
          then
            failure :=
              Some
                (Printf.sprintf
                   "Ssp benefit %.17g <> Scaling benefit %.17g at rep %d \
                    step %d"
                   warm.Flow_expect.expected_benefit
                   scaling.Flow_expect.expected_benefit !rep t)
          else cached := warm.Flow_expect.keep;
          incr now
        done;
        incr rep
      done;
      match !failure with
      | None ->
        Check.Pass
          {
            cases = reps * 6;
            note = "warm-started decisions bit-equal fresh solves";
          }
      | Some detail -> Check.Fail { detail; case = None })

(* --- precomputed h1 curve / h2 surface vs exact sums ----------------- *)

let close ?(tol = 1e-9) a b =
  Float.abs (a -. b) <= tol *. (1.0 +. Float.abs a +. Float.abs b)

let h1_check =
  Check.make ~name:"oracle:h1/curve-vs-direct-sum" ~kind:Check.Oracle
    ~fast:"Precompute.walk_joining_curve (shared table, banded accumulation)"
    ~reference:"Precompute.walk_joining_h (naive convolutions, point lookups)"
    (fun ~seed:_ ~count:_ ->
      let step = Dist.discretized_normal ~sigma:1.0 ~bound:5 in
      let l = Lfun.exp_ ~alpha:6.0 in
      let failure = ref None in
      List.iter
        (fun drift ->
          let curve =
            Precompute.walk_joining_curve ~step ~drift ~l ~lo:(-6) ~hi:6
          in
          for d = -6 to 6 do
            let fast = Interp.Curve.eval curve (float_of_int d) in
            let exact = Precompute.walk_joining_h ~step ~drift ~l ~d in
            if !failure = None && not (close fast exact) then
              failure :=
                Some
                  (Printf.sprintf
                     "h1(d=%d, drift=%d): curve %.17g vs direct %.17g" d
                     drift fast exact)
          done)
        [ 0; 2 ];
      match !failure with
      | None ->
        Check.Pass { cases = 26; note = "h1 curve matches the direct sum" }
      | Some detail -> Check.Fail { detail; case = None })

let h2_check =
  Check.make ~name:"oracle:h2/bicubic-vs-exact-columns" ~kind:Check.Oracle
    ~fast:"Interp.Surface.eval over the bicubic h2 control grid"
    ~reference:"Precompute.ar1_caching_exact at the control nodes"
    (fun ~seed:_ ~count:_ ->
      let params = { Ar1.phi0 = 2.0; phi1 = 0.5; sigma = 2.0 } in
      let l = Lfun.exp_ ~alpha:12.0 in
      (* Spans divisible by (n − 1), so every control node is an exact
         integer and the exact-column lookup is meaningful. *)
      let lo = -8 and hi = 8 and n = 5 in
      let surface =
        Precompute.ar1_caching_surface params ~l ~vx_lo:lo ~vx_hi:hi
          ~x0_lo:lo ~x0_hi:hi ~nv:n ~nx:n ~horizon:256 ()
      in
      let step = (hi - lo) / (n - 1) in
      let failure = ref None in
      for i = 0 to n - 1 do
        for k = 0 to n - 1 do
          let vx = lo + (i * step) and x0 = lo + (k * step) in
          let fast =
            Interp.Surface.eval surface (float_of_int vx) (float_of_int x0)
          in
          let exact =
            Precompute.ar1_caching_exact params ~l ~horizon:256 ~vx ~x0 ()
          in
          if !failure = None && not (close fast exact) then
            failure :=
              Some
                (Printf.sprintf
                   "h2(vx=%d, x0=%d): surface %.17g vs exact %.17g" vx x0
                   fast exact)
        done
      done;
      match !failure with
      | None ->
        Check.Pass
          { cases = n * n; note = "surface control nodes match exact DP" }
      | Some detail -> Check.Fail { detail; case = None })

(* --- online policies bounded by OPT-offline -------------------------- *)

let opt_bound_violation case =
  (* OPT has no sliding-window variant; the generator never opens one. *)
  let trace = Case.trace case in
  let online =
    Join_sim.run ~trace ~policy:(Case.policy case)
      ~capacity:case.Case.capacity ~band:case.Case.band ()
  in
  let opt =
    Opt_offline.max_results ~band:case.Case.band ~trace
      ~capacity:case.Case.capacity ()
  in
  if online.Join_sim.total_results <= opt then None
  else
    Some
      (Printf.sprintf "online %s produced %d > OPT-offline %d" case.Case.policy
         online.Join_sim.total_results opt)

let opt_bound_check =
  Check.of_violation ~name:"oracle:online-le-opt-offline" ~kind:Check.Oracle
    ~fast:"every online policy's total join count"
    ~reference:"Opt_offline.max_results upper bound"
    ~gen:(fun ~seed i -> gen_case ~allow_window:false ~seed i)
    opt_bound_violation

let opt_curve_check =
  Check.make ~name:"oracle:opt/curve-vs-single-solves" ~kind:Check.Oracle
    ~fast:"Opt_offline.max_results_curve (one solve, breakpoint list)"
    ~reference:"Opt_offline.max_results_from per capacity"
    (fun ~seed ~count ->
      let cases = max 1 (count / 6) in
      let capacities = [ 1; 2; 3; 4; 5 ] in
      let failure = ref None in
      let i = ref 0 in
      while !failure = None && !i < cases do
        let case = gen_case ~allow_window:false ~seed:(seed + 31) !i in
        let trace = Case.trace case in
        let start = Case.length case / 4 in
        let curve =
          Opt_offline.max_results_curve ~band:case.Case.band ~trace
            ~capacities ~start ()
        in
        List.iter
          (fun capacity ->
            let single =
              Opt_offline.max_results_from ~band:case.Case.band ~trace
                ~capacity ~start ()
            in
            let from_curve =
              match List.assoc_opt capacity curve with
              | Some v -> v
              | None -> min_int
            in
            if !failure = None && from_curve <> single then
              failure :=
                Some
                  (Printf.sprintf
                     "case %d cap %d: curve says %d, single solve %d" !i
                     capacity from_curve single))
          capacities;
        incr i
      done;
      match !failure with
      | None ->
        Check.Pass
          {
            cases = cases * List.length capacities;
            note = "capacity curve matches per-capacity solves";
          }
      | Some detail -> Check.Fail { detail; case = None })

(* --- FlowExpect bounded by expectimax (Section 3.4) ------------------ *)

let expectimax_check =
  Check.make ~name:"oracle:flow-expect-le-expectimax" ~kind:Check.Oracle
    ~fast:"FlowExpect's chosen predetermined plan"
    ~reference:"exhaustive predetermined bound and adaptive expectimax optimum"
    (fun ~seed:_ ~count:_ ->
      let plan, adaptive, predetermined =
        Experiments.example_3_4_numbers ()
      in
      let b = plan.Flow_expect.expected_benefit in
      if b > predetermined +. 1e-9 then
        Check.Fail
          {
            detail =
              Printf.sprintf
                "FlowExpect benefit %.17g exceeds the exhaustive \
                 predetermined bound %.17g"
                b predetermined;
            case = None;
          }
      else if predetermined > adaptive +. 1e-9 then
        Check.Fail
          {
            detail =
              Printf.sprintf
                "predetermined bound %.17g exceeds the adaptive optimum \
                 %.17g"
                predetermined adaptive;
            case = None;
          }
      else
        Check.Pass
          {
            cases = 1;
            note =
              Printf.sprintf "%.3g <= %.3g <= %.3g (Section 3.4)" b
                predetermined adaptive;
          })

(* --- Mcmf vs independent cycle-cancelling oracle --------------------- *)

let mcmf_check =
  Check.make ~name:"oracle:mcmf/ssp-vs-cycle-cancel" ~kind:Check.Oracle
    ~fast:"Ssj_flow.Mcmf.solve (successive shortest paths)"
    ~reference:"Ssj_flow.Mcmf_check.min_cost_flow (BFS + cycle cancelling)"
    (fun ~seed ~count ->
      let failure = ref None in
      let i = ref 0 in
      while !failure = None && !i < count do
        let spec, target = Ssj_flow.Mcmf_check.random_graph ~seed ~index:!i in
        let source = 0 and sink = spec.Ssj_flow.Mcmf_check.nodes - 1 in
        let g = Ssj_flow.Mcmf.create spec.Ssj_flow.Mcmf_check.nodes in
        Array.iter
          (fun (src, dst, cap, cost) ->
            ignore (Ssj_flow.Mcmf.add_arc g ~src ~dst ~cap ~cost))
          spec.Ssj_flow.Mcmf_check.arcs;
        let fast = Ssj_flow.Mcmf.solve g ~source ~sink ~target in
        let slow_flow, slow_cost =
          Ssj_flow.Mcmf_check.min_cost_flow spec ~source ~sink ~target
        in
        if
          fast.Ssj_flow.Mcmf.flow <> slow_flow
          || Float.abs (fast.Ssj_flow.Mcmf.cost -. slow_cost) > 1e-6
        then
          failure :=
            Some
              (Printf.sprintf
                 "graph (seed=%d, index=%d): Mcmf (flow=%d cost=%.17g) vs \
                  oracle (flow=%d cost=%.17g)"
                 seed !i fast.Ssj_flow.Mcmf.flow fast.Ssj_flow.Mcmf.cost
                 slow_flow slow_cost);
        incr i
      done;
      match !failure with
      | None ->
        Check.Pass
          { cases = count; note = "solver agrees with independent oracle" }
      | Some detail -> Check.Fail { detail; case = None })

let all =
  [
    join_sim_indexed;
    join_sim_lifted;
    keep_top_check;
    flow_expect_check;
    h1_check;
    h2_check;
    opt_bound_check;
    opt_curve_check;
    expectimax_check;
    mcmf_check;
  ]
