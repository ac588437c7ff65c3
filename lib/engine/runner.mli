(** Multi-run experiment harness.

    The paper's synthetic experiments run 50 independent realisations of
    the same stochastic configuration and report mean join counts after a
    warm-up of at least four cache sizes (Section 6.2).  [compare_joining]
    evaluates every policy on the *same* set of traces (paired runs keep
    the variance of comparisons low) and can add the OPT-offline bound. *)

type summary = {
  label : string;
  mean : float;
  stddev : float;
  per_run : float array;
}

val summarize : label:string -> float array -> summary
(** Mean and population stddev of [per_run]; an empty array summarises
    to zeros (never NaN), keeping downstream JSON schemas stable. *)

type joining_setup = {
  capacity : int;
  warmup : int;  (** use [default_warmup] for the paper's 4·capacity rule *)
  window : Ssj_stream.Window.t option;
}

val default_warmup : capacity:int -> int

val compare_joining :
  setup:joining_setup ->
  traces:Ssj_stream.Trace.t array ->
  policies:(string * (unit -> Ssj_core.Policy.join)) list ->
  ?include_opt:bool ->
  ?jobs:int ->
  unit ->
  summary list
(** Each policy factory is invoked afresh per run (policies are stateful),
    so runs are independent and evaluated in parallel over
    {!Ssj_prob.Parallel.map} ([jobs] defaults to
    {!Ssj_prob.Parallel.default_jobs}; results are identical for any job
    count).  With [include_opt] (default true) an
    "OPT-OFFLINE" summary computed by {!Ssj_core.Opt_offline} on the same
    traces is prepended. *)

val compare_joining_observed :
  setup:joining_setup ->
  traces:Ssj_stream.Trace.t array ->
  policies:(string * (unit -> Ssj_core.Policy.join)) list ->
  ?jobs:int ->
  unit ->
  (summary * Ssj_obs.Obs.view list) list
(** Like {!compare_joining} (without the OPT bound) but resets the
    {!Ssj_obs.Obs} registry before each policy and pairs its summary
    with the metric snapshot taken after its runs — the per-policy
    "obs" block of [BENCH_joining.json].  Summaries are identical to
    {!compare_joining}'s.  Callers that want non-empty snapshots must
    enable the gate ({!Ssj_obs.Obs.set_enabled} or [SSJ_OBS=1]). *)

val compare_caching :
  capacity:int ->
  warmup:int ->
  references:int array array ->
  policies:(string * (unit -> Ssj_core.Policy.cache)) list ->
  ?include_lfd:bool ->
  ?metric:[ `Hits | `Misses ] ->
  ?jobs:int ->
  unit ->
  summary list
(** Caching analogue; [metric] selects what the summaries report
    (default [`Misses], as in Figure 13).  [jobs] as in
    {!compare_joining}. *)

val share_trace :
  trace:Ssj_stream.Trace.t ->
  policy:Ssj_core.Policy.join ->
  capacity:int ->
  every:int ->
  (int * float) list
(** Fraction of the cache occupied by R tuples over time (Figures 14,
    17, 18). *)

(** {2 Supervised execution}

    A sweep of hundreds of runs should not lose everything to one bad
    run.  {!run_supervised} evaluates each run under a supervisor that
    catches exceptions, retries with the same inputs a bounded number
    of times, records the survivor in a structured failure manifest,
    and summarises over the runs that completed.  With a
    {!Checkpoint.t} attached, completed runs are persisted and a
    restarted sweep resumes bit-identically, skipping them. *)

type failure = {
  policy : string;  (** sweep label the run belonged to *)
  run : int;  (** index into the input array *)
  attempts : int;  (** attempts made, including retries *)
  error : string;  (** rendered exception *)
  backtrace : string;
}

type supervision = {
  retries : int;  (** extra same-input attempts after a failure *)
  step_budget : int option;
      (** per-run soft timeout, enforced by
          {!compare_joining_supervised} via
          {!Join_sim.Step_budget_exceeded} *)
  checkpoint : Checkpoint.t option;
}

val default_supervision : supervision
(** One retry, no step budget, no checkpoint. *)

val supervision_from_env : unit -> supervision
(** Reads [SSJ_RETRIES] (default 1), [SSJ_STEP_BUDGET] (default
    unlimited) and [SSJ_CHECKPOINT] (see {!Checkpoint.from_env}). *)

type supervised = {
  summary : summary;  (** over completed runs only; zeros when none *)
  failures : failure list;  (** in run order; empty on a clean sweep *)
  salvaged : int;  (** completed runs — [salvaged + length failures] is
                       the input size *)
  checkpoint_hits : int;  (** runs answered from the checkpoint *)
}

val run_supervised :
  label:string ->
  ?supervision:supervision ->
  ?ckpt_context:string ->
  ?jobs:int ->
  (int -> 'a -> float) ->
  'a array ->
  supervised
(** Evaluate [f run_index item] for every item over
    {!Ssj_prob.Parallel.try_map}.  A raising run is retried up to
    [supervision.retries] times with the same index and item; if every
    attempt fails, a {!failure} is recorded and the sweep continues.
    [per_run] keeps the completed runs in input order, so results are
    independent of the job count.
    Checkpoint keys are ["<ckpt_context>|<label>|<run_index>"]
    ([ckpt_context] defaults to [""]); a key already present skips the
    run entirely and substitutes the recorded value bit-identically.
    Note [supervision.step_budget] is not enforced here — [f] is opaque;
    use {!compare_joining_supervised} or thread it into [f] yourself. *)

val compare_joining_supervised :
  setup:joining_setup ->
  traces:Ssj_stream.Trace.t array ->
  policies:(string * (unit -> Ssj_core.Policy.join)) list ->
  ?supervision:supervision ->
  ?ckpt_context:string ->
  ?jobs:int ->
  unit ->
  supervised list
(** {!compare_joining} (without the OPT bound) under supervision: each
    policy's runs are retried / salvaged / checkpointed independently,
    and [supervision.step_budget] is threaded into {!Join_sim.run}.
    With no failures and no step budget, every [summary] is identical
    to {!compare_joining}'s.  [ckpt_context] defaults to
    ["cap<capacity>"]. *)
