(** The differential oracle registry: every optimised path in the
    engine paired with an independent reference implementation.

    - [oracle:join-sim/indexed-vs-listscan] — the engine's default run
      (array-native fast path + incremental {!Ssj_engine.Join_index})
      vs the naive list-scan simulator {!Ref_sim}; shrinkable.
    - [oracle:join-sim/lifted-validated-vs-listscan] — the same engine
      loop with the policy's [fast] stripped (its [select] runs through
      the engine's adapter) and every step validated, vs the same
      reference; shrinkable.
    - [oracle:keep-top/bounded-vs-sort] — bounded selection
      ([keep_top], [select_top]) vs the full-stable-sort spec.
    - [oracle:flow-expect/warm-vs-fresh] — warm-started
      {!Ssj_core.Flow_expect.decide} vs fresh per-step solves
      (bit-equal), plus the [`Scaling] backend within tolerance.
    - [oracle:h1/curve-vs-direct-sum] — the precomputed random-walk
      joining curve vs {!Ssj_core.Precompute.walk_joining_h}.
    - [oracle:h2/bicubic-vs-exact-columns] — bicubic surface control
      nodes vs exact first-passage columns.
    - [oracle:online-le-opt-offline] — every online policy's total
      bounded by {!Ssj_core.Opt_offline.max_results}; shrinkable.
    - [oracle:opt/curve-vs-single-solves] — the single-solve capacity
      curve vs per-capacity solves.
    - [oracle:flow-expect-le-expectimax] — the Section 3.4 ordering
      (FlowExpect ≤ predetermined bound ≤ adaptive optimum).
    - [oracle:mcmf/ssp-vs-cycle-cancel] — the production min-cost-flow
      solver vs the independent cycle-cancelling oracle on seeded
      random DAGs. *)

val gen_case :
  ?force_band:bool -> ?allow_window:bool -> seed:int -> int -> Case.t
(** Case number [i] of stream [seed]: short trace over a narrow value
    domain, small cache, random policy/band/window.  [force_band]
    demands [band ≥ 1] (the band-probe paths); [allow_window:false]
    restricts to regular semantics (e.g. for OPT, which has no window
    variant).  Shared with the metamorphic laws and the test suite. *)

val all : Check.t list
