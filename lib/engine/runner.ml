open Ssj_core
module Obs = Ssj_obs.Obs
module Parallel = Ssj_prob.Parallel

type summary = {
  label : string;
  mean : float;
  stddev : float;
  per_run : float array;
}

let summarize ~label per_run =
  (* An empty sweep (0 traces) must summarise to zeros, not NaN: the
     bench JSON schema promises finite policy means at any scale. *)
  if Array.length per_run = 0 then { label; mean = 0.0; stddev = 0.0; per_run }
  else
    {
      label;
      mean = Ssj_prob.Stats.mean per_run;
      stddev = Ssj_prob.Stats.stddev per_run;
      per_run;
    }

type joining_setup = {
  capacity : int;
  warmup : int;
  window : Ssj_stream.Window.t option;
}

let default_warmup ~capacity = 4 * capacity

let compare_joining ~setup ~traces ~policies ?(include_opt = true) ?jobs () =
  let { capacity; warmup; window } = setup in
  let opt =
    if include_opt then begin
      let per_run =
        Parallel.map ?jobs
          (fun trace ->
            float_of_int
              (Opt_offline.max_results_from ~trace ~capacity ~start:warmup ()))
          traces
      in
      [ summarize ~label:"OPT-OFFLINE" per_run ]
    end
    else []
  in
  let evaluated =
    List.map
      (fun (label, make) ->
        let per_run =
          Parallel.map ?jobs
            (fun trace ->
              let policy = make () in
              let result =
                Join_sim.run ~trace ~policy ~capacity ~warmup ?window ()
              in
              float_of_int result.Join_sim.counted_results)
            traces
        in
        summarize ~label per_run)
      policies
  in
  opt @ evaluated

let compare_joining_observed ~setup ~traces ~policies ?jobs () =
  (* Evaluate the policies one at a time, resetting the metric registry
     between them, so each snapshot isolates one policy's engine
     activity (counters are process-global).  Selections are identical
     to {!compare_joining}'s — only the grouping differs. *)
  List.map
    (fun (label, make) ->
      Ssj_obs.Obs.reset ();
      let summary =
        match
          compare_joining ~setup ~traces ~policies:[ (label, make) ]
            ~include_opt:false ?jobs ()
        with
        | [ s ] -> s
        | _ -> assert false
      in
      (summary, Ssj_obs.Obs.snapshot ()))
    policies

let compare_caching ~capacity ~warmup ~references ~policies
    ?(include_lfd = true) ?(metric = `Misses) ?jobs () =
  let pick (r : Cache_sim.result) =
    match metric with
    | `Hits -> float_of_int r.Cache_sim.counted_hits
    | `Misses -> float_of_int r.Cache_sim.counted_misses
  in
  let lfd =
    if include_lfd then begin
      let per_run =
        Parallel.map ?jobs
          (fun reference ->
            let policy = Classic.lfd ~reference in
            pick (Cache_sim.run ~reference ~policy ~capacity ~warmup ()))
          references
      in
      [ summarize ~label:"LFD" per_run ]
    end
    else []
  in
  let evaluated =
    List.map
      (fun (label, make) ->
        let per_run =
          Parallel.map ?jobs
            (fun reference ->
              let policy = make () in
              pick (Cache_sim.run ~reference ~policy ~capacity ~warmup ()))
            references
        in
        summarize ~label per_run)
      policies
  in
  lfd @ evaluated

let share_trace ~trace ~policy ~capacity ~every =
  let result =
    Join_sim.run ~trace ~policy ~capacity ~record_share:every ()
  in
  result.Join_sim.share_samples

(* ---- Supervised execution ---------------------------------------- *)

let m_run_failures = Obs.Counter.create "runner.run_failures"
let m_run_retries = Obs.Counter.create "runner.run_retries"
let m_checkpoint_hits = Obs.Counter.create "runner.checkpoint_hits"

type failure = {
  policy : string;
  run : int;
  attempts : int;
  error : string;
  backtrace : string;
}

type supervision = {
  retries : int;
  step_budget : int option;
  checkpoint : Checkpoint.t option;
}

let default_supervision = { retries = 1; step_budget = None; checkpoint = None }

let env_int name =
  match Sys.getenv_opt name with
  | None | Some "" -> None
  | Some s -> int_of_string_opt (String.trim s)

let supervision_from_env () =
  {
    retries =
      (match env_int "SSJ_RETRIES" with Some r when r >= 0 -> r | _ -> 1);
    step_budget =
      (match env_int "SSJ_STEP_BUDGET" with
      | Some b when b > 0 -> Some b
      | _ -> None);
    checkpoint = Checkpoint.from_env ();
  }

type supervised = {
  summary : summary;
  failures : failure list;
  salvaged : int;
  checkpoint_hits : int;
}

(* Carries the structured failure out of the worker domain through
   [Parallel.try_map]'s per-slot capture. *)
exception Run_failed of failure

let run_supervised ~label ?(supervision = default_supervision)
    ?(ckpt_context = "") ?jobs f arr =
  let hits = Atomic.make 0 in
  let key run = Printf.sprintf "%s|%s|%d" ckpt_context label run in
  let worker run x =
    let k = key run in
    let recorded =
      match supervision.checkpoint with
      | Some ckpt -> Checkpoint.find ckpt ~key:k
      | None -> None
    in
    match recorded with
    | Some v ->
      Atomic.incr hits;
      Obs.Counter.incr m_checkpoint_hits;
      v
    | None ->
      let attempts_max = 1 + max 0 supervision.retries in
      let rec go attempt =
        match f run x with
        | v ->
          (match supervision.checkpoint with
          | Some ckpt -> Checkpoint.record ckpt ~key:k v
          | None -> ());
          v
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          if attempt < attempts_max then begin
            Obs.Counter.incr m_run_retries;
            go (attempt + 1)
          end
          else begin
            Obs.Counter.incr m_run_failures;
            raise
              (Run_failed
                 {
                   policy = label;
                   run;
                   attempts = attempt;
                   error = Printexc.to_string e;
                   backtrace = Printexc.raw_backtrace_to_string bt;
                 })
          end
      in
      go 1
  in
  let indexed = Array.mapi (fun i x -> (i, x)) arr in
  let slots = Parallel.try_map ?jobs (fun (i, x) -> worker i x) indexed in
  let completed = ref [] and failures = ref [] in
  Array.iteri
    (fun i slot ->
      match slot with
      | Ok v -> completed := v :: !completed
      | Error (Run_failed fl, _) -> failures := fl :: !failures
      | Error (e, bt) ->
        (* Exceptions raised outside the retry loop (e.g. during spawn)
           still become manifest entries rather than vanishing. *)
        failures :=
          {
            policy = label;
            run = i;
            attempts = 1;
            error = Printexc.to_string e;
            backtrace = Printexc.raw_backtrace_to_string bt;
          }
          :: !failures)
    slots;
  let per_run = Array.of_list (List.rev !completed) in
  {
    summary = summarize ~label per_run;
    failures = List.rev !failures;
    salvaged = Array.length per_run;
    checkpoint_hits = Atomic.get hits;
  }

let compare_joining_supervised ~setup ~traces ~policies
    ?(supervision = default_supervision) ?ckpt_context ?jobs () =
  let { capacity; warmup; window } = setup in
  let ckpt_context =
    match ckpt_context with
    | Some c -> c
    | None -> Printf.sprintf "cap%d" capacity
  in
  List.map
    (fun (label, make) ->
      run_supervised ~label ~supervision ~ckpt_context ?jobs
        (fun _run trace ->
          let policy = make () in
          let result =
            Join_sim.run ~trace ~policy ~capacity ~warmup ?window
              ?step_budget:supervision.step_budget ()
          in
          float_of_int result.Join_sim.counted_results)
        traces)
    policies
