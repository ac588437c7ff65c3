(** FlowExpect — Section 3.

    At every time step, build the time-expanded flow graph of Section 3.1
    over look-ahead [l]: slice [G_{t0}] holds the [k] cached tuples plus
    the two arrivals (determined nodes); each later slice copies every
    node of the previous slice (horizontal "keep" arcs costing the negated
    expected one-step benefit) and adds two undetermined arrival nodes,
    reachable from the duplicates through a per-slice connector node
    (replacement, cost 0) — the compact arc layout counted in the paper's
    Appendix D.  A min-cost integral flow of value [k] picks the best
    *predetermined* replacement plan (Theorem 2); the first slice's flow
    gives this step's decision.

    The per-step graph solve makes FlowExpect expensive, and Section 3.4
    shows it is suboptimal regardless; it serves as a yardstick. *)

type plan = {
  keep : Ssj_stream.Tuple.t list;  (** the k tuples to retain at [t0] *)
  expected_benefit : float;
      (** expected number of results over [\[t0+1, t0+l\]] under the chosen
          plan (the negated min cost) *)
}

type handle
(** Warm-start arena for repeated {!decide} calls: holds one reusable
    {!Ssj_flow.Mcmf} graph, reset rather than reallocated each step (see
    {!Ssj_flow.Mcmf.reset}).  Decisions are bit-identical with and without
    a handle; the handle only removes per-step graph allocation. *)

val handle : unit -> handle
(** A fresh arena; share one per policy instance (not across domains). *)

val graph :
  r:Ssj_model.Predictor.t ->
  s:Ssj_model.Predictor.t ->
  lookahead:int ->
  cached:Ssj_stream.Tuple.t list ->
  arrivals:Ssj_stream.Tuple.t list ->
  Ssj_flow.Mcmf_check.graph
(** The Section 3.1 graph {!decide} solves, arc for arc: source 0, sink 1,
    one unit-capacity source arc per candidate ([cached], then
    [arrivals]) first.  A min-cost flow of value [min capacity (number
    of candidates)] costs the negated [expected_benefit] of {!decide}'s
    plan; reference solvers use it to check the production solve.
    [lookahead ≥ 1]. *)

val decide :
  ?handle:handle ->
  r:Ssj_model.Predictor.t ->
  s:Ssj_model.Predictor.t ->
  lookahead:int ->
  cached:Ssj_stream.Tuple.t list ->
  arrivals:Ssj_stream.Tuple.t list ->
  capacity:int ->
  unit ->
  plan
(** One FlowExpect step, solved with {!Ssj_flow.Mcmf}.  The predictors
    must already have observed everything up to and including the
    arrivals (history [x̄_{t0}]).  [lookahead ≥ 1]. *)

val policy :
  ?name:string ->
  r:Ssj_model.Predictor.t ->
  s:Ssj_model.Predictor.t ->
  lookahead:int ->
  unit ->
  Policy.join
(** The online policy: observes arrivals, then calls {!decide} each step.
    Predictors are passed positioned before the first arrival. *)
