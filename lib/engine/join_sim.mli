(** The joining-problem executor.

    Replays a trace step by step.  At each time [t] the two arrivals first
    join against the cache contents decided at [t − 1] (same-time R–S
    matches are excluded, as the paper's benefit accounting prescribes),
    then the policy picks the new cache contents from cached ∪ arrivals.

    With a sliding window, only cached tuples still inside the window
    produce results.

    Every run steps the policy's buffer [fast] step; a policy without
    one has its list [select] driven through an adapter built at the
    start of the run. *)

exception Step_budget_exceeded of { policy : string; steps : int }
(** Raised by {!run} when a [step_budget] is given and the trace asks
    for more steps — the supervised runner's soft per-run timeout
    ([steps] is the number of steps that did complete). *)

type result = {
  total_results : int;  (** result tuples over the whole run *)
  counted_results : int;  (** result tuples at times ≥ warm-up *)
  share_samples : (int * float) list;
      (** (time, fraction of cache occupied by R tuples), sampled every
          [record_share] steps when requested — Figures 14/17/18 *)
}

val run :
  trace:Ssj_stream.Trace.t ->
  policy:Ssj_core.Policy.join ->
  capacity:int ->
  ?warmup:int ->
  ?window:Ssj_stream.Window.t ->
  ?band:int ->
  ?record_share:int ->
  ?validate:bool ->
  ?step_budget:int ->
  unit ->
  result
(** [warmup] defaults to 0; [band] (default 0 = equijoin) switches to band
    semantics, matching tuples with [|v1 − v2| ≤ band]; [validate]
    (default false) checks every step's selection (a duplicate-free
    subset of cached ∪ arrivals, values intact, within capacity) and,
    when the policy reports one, its diff (evicted positions and kept
    arrivals), raising [Failure] on a violation — used by the test
    suite, skipped in benchmarks.  [step_budget] (default unlimited)
    aborts the run with {!Step_budget_exceeded} once that many steps
    have executed — the supervised runner's per-run soft timeout. *)

val matches_in_cache :
  ?window:Ssj_stream.Window.t ->
  ?band:int ->
  now:int ->
  Ssj_stream.Tuple.t list ->
  Ssj_stream.Tuple.t ->
  int
(** Reference match counter: full scan of the cache list.  [run] itself
    counts through the incremental {!Join_index}; this is the oracle the
    property tests compare it against (and what {!recount} uses). *)

val recount :
  trace:Ssj_stream.Trace.t ->
  decisions:Ssj_stream.Tuple.t list array ->
  ?window:Ssj_stream.Window.t ->
  ?band:int ->
  unit ->
  int
(** Independent re-derivation of the result count from a decision log
    (cache contents after each step); lets tests cross-check [run]. *)

val run_logged :
  trace:Ssj_stream.Trace.t ->
  policy:Ssj_core.Policy.join ->
  capacity:int ->
  ?window:Ssj_stream.Window.t ->
  unit ->
  result * Ssj_stream.Tuple.t list array
(** Like [run] but also returns the decision log for [recount]. *)
