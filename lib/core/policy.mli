(** The unified cache-replacement-policy interface — Section 3.3's
    algorithm signature made executable.

    A policy is a stateful decision procedure.  The simulator calls it
    exactly once per time step, in time order — through [fast] when the
    policy has one, else through [select] — with the current cache
    contents and the new arrivals; the policy returns the new cache
    contents (a subset of cached ∪ arrivals of size ≤ capacity).  State
    (history counts, predictors, incremental H values) lives inside the
    closure, so one instance serves one run through one entry point.

    Two variants mirror the paper's two problems: {!join} for joining two
    streams and {!cache} for the caching problem (reference stream against
    a database relation, where cache entries are database-tuple values). *)

type buffer = {
  mutable uids : int array;
  mutable values : int array;
  mutable n : int;
  mutable evicted : int array;
  mutable evicted_n : int;
  mutable kept_r : bool;
  mutable kept_s : bool;
}
(** Engine-owned cache buffer for the array-native fast path: current
    cache contents, best-first, as parallel unboxed arrays
    [uids.(0 .. n-1)] / [values.(0 .. n-1)].  The uid encodes the rest
    of the tuple ([uid = 2·arrival + side] with side R = 0, S = 1), so
    the two int arrays carry the whole cache without pointer stores.
    The remaining fields report the diff of the step that produced the
    contents — [evicted.(0 .. evicted_n-1)] are the *positions in the
    previous buffer* of the cached tuples dropped, [kept_r]/[kept_s]
    whether each arrival entered — letting the engine maintain its join
    index in O(changes).  [evicted_n = -1] means the diff was not
    computed and the caller must compare the two buffers itself. *)

val buffer : unit -> buffer

type fast_select =
  src:buffer ->
  dst:buffer ->
  now:int ->
  r:Ssj_stream.Tuple.t ->
  s:Ssj_stream.Tuple.t ->
  capacity:int ->
  unit
(** Array-native step: read the cache from [src], write the new selection
    (best-first) and its diff into [dst].  Must decide exactly as the
    policy's [select] would on the same state. *)

type join = {
  name : string;
  select :
    now:int ->
    cached:Ssj_stream.Tuple.t list ->
    arrivals:Ssj_stream.Tuple.t list ->
    capacity:int ->
    Ssj_stream.Tuple.t list;
  fast : fast_select option;
      (** allocation-free per-step variant; with [None] the simulator
          drives [select] through its buffer loop instead *)
}

val make_join :
  name:string ->
  (now:int ->
  cached:Ssj_stream.Tuple.t list ->
  arrivals:Ssj_stream.Tuple.t list ->
  capacity:int ->
  Ssj_stream.Tuple.t list) ->
  join
(** A policy with only a list [select] ([fast = None]) — for policies
    that need the kept list itself, such as FlowExpect's plan or
    incremental HEEB's state pruning. *)

type score =
  now:int -> n:int -> uids:int array -> values:int array -> float array -> unit
(** One per-step scoring loop: fill [scores.(0 .. n-1)] for the [n]
    candidates given as parallel [uids]/[values] arrays (uid =
    2·arrival + side bit, see {!Ssj_stream.Tuple.make}) — the cached
    tuples first, then the step's arrivals (R, then S) — in index
    order. *)

val scored :
  name:string -> ?observe:(Ssj_stream.Tuple.t -> unit) -> score -> join
(** [scored ~name ?observe score] is the top-k policy that keeps the
    [capacity] best-scored candidates, best-first, score ties going to
    the newer tuple.  Both the list [select] and the buffer [fast] step
    call [observe] on each arrival (R, then S) before scoring and then
    run [score] once over all candidates, so they decide identically.
    With [capacity <= 0] the selection is empty and nothing is
    scored. *)

type cache = {
  cname : string;
  access :
    now:int -> cached:int list -> value:int -> hit:bool -> capacity:int -> int list;
      (** [value] is the join-attribute value of the incoming reference
          tuple; on a miss the joining database tuple has been fetched and
          may be cached.  Returns the new cache contents (values), a subset
          of [cached ∪ {value}] of size ≤ [capacity]. *)
}

val validate_join_selection :
  cached:Ssj_stream.Tuple.t list ->
  arrivals:Ssj_stream.Tuple.t list ->
  capacity:int ->
  Ssj_stream.Tuple.t list ->
  (unit, string) result
(** Simulator-side sanity check: result ⊆ candidates, no duplicates,
    within capacity. *)

val keep_top :
  capacity:int ->
  score:(Ssj_stream.Tuple.t -> float) ->
  Ssj_stream.Tuple.t list ->
  Ssj_stream.Tuple.t list
(** Keep the [capacity] candidates with the highest score, best-first;
    score ties go to the newer tuple (higher uid).  [score] is called
    exactly once per candidate, in list order, so stateful scores behave
    deterministically.  Implemented as a bounded selection — a
    size-[capacity] heap when the candidate set is much larger than the
    capacity, a flat array sort otherwise — and agrees exactly with
    {!keep_top_spec}. *)

val keep_top_spec :
  capacity:int ->
  score:(Ssj_stream.Tuple.t -> float) ->
  Ssj_stream.Tuple.t list ->
  Ssj_stream.Tuple.t list
(** Reference implementation of {!keep_top} by full stable sort; the
    oracle for the property tests.  O(n log n) and allocation-heavy —
    use {!keep_top} everywhere else. *)

type selector
(** Reusable scratch buffers for {!select_top}.  A selector belongs to a
    single policy instance (policies already own per-instance state) and
    must not be shared across domains; the parallel runner instantiates
    one policy — hence one selector — per trace. *)

val selector : unit -> selector

val select_top :
  selector ->
  capacity:int ->
  score:(Ssj_stream.Tuple.t -> float) ->
  cached:Ssj_stream.Tuple.t list ->
  arrivals:Ssj_stream.Tuple.t list ->
  Ssj_stream.Tuple.t list
(** [select_top sel ~capacity ~score ~cached ~arrivals] equals
    [keep_top ~capacity ~score (cached @ arrivals)] but reuses [sel]'s
    buffers and skips the list append, allocating only the result list.
    For list-only policies whose score needs the tuple itself; a policy
    that scores from uid and value is built with {!scored}. *)
