(** Sliding-window join semantics — Section 7.

    Tuples participate in the join only while inside the window
    [\[t0 − w, t0\]].  The windowed ECB freezes at window exit
    ({!Ecb.sliding}); the natural HEEB instance uses [L_exp] forced to 0
    once the tuple leaves the window, which "weighs short-term benefits
    more, yet does not ignore long-term benefits" — unlike PROB
    (short-sighted) and LIFE (pessimistic), cf. the x1/x2/x3 example. *)

val heeb :
  ?name:string ->
  r:Ssj_model.Predictor.t ->
  s:Ssj_model.Predictor.t ->
  alpha:float ->
  window:Ssj_stream.Window.t ->
  unit ->
  Policy.join
(** Windowed HEEB for the joining problem: each candidate is scored with
    [L_exp(α)] truncated at its remaining window lifetime.  Both [select]
    and the array-native [fast] path run the one scoring kernel {!score}
    exposes, so the two decide identically. *)

(** {2 The windowed-HEEB score}

    The one scoring kernel behind {!heeb} (which writes each score straight
    into the step's score array), exposed one candidate at a time so it
    can be checked against its definition.  For a candidate with
    remaining lifetime [remaining = arrival + width − now > 0] against
    partner predictor [P],
    {!score} is bit-identical to
    [Hvalue.joining ~partner:P ~l:(Lfun.windowed (Lfun.exp_ ~alpha)
    ~remaining)]; an expired candidate scores [neg_infinity].  Candidates
    must have arrived at or before [now] (as every engine guarantees), so
    [remaining ≤ width]. *)

type scorer
(** [L_exp(α)] weights tabulated once up to [min(horizon, width)], and
    each side's table of predicted laws over the same range. *)

val scorer : alpha:float -> window:Ssj_stream.Window.t -> scorer

val refresh :
  scorer -> r:Ssj_model.Predictor.t -> s:Ssj_model.Predictor.t -> unit
(** Re-tabulate both sides' laws [pmf d] from the current predictors;
    called once per step, after the step's arrivals are observed. *)

val score : scorer -> now:int -> uid:int -> value:int -> float
(** Score of the tuple with this uid ([2·arrival + side], side R = 0) and
    value, against the partner side's laws from the last {!refresh}.
    The test-facing view: it allocates a one-slot array and the returned
    float, which the policy's loop does not. *)

val stationary_score :
  alpha:float -> p:float -> remaining_lifetime:int -> float
(** Closed form of the windowed-HEEB score for a stationary partner with
    match probability [p]:
    [H = p · Σ_{Δt=1..life} e^{−Δt/α}].  Used by the Section 7 example
    (x1, x2, x3) and its tests. *)

val prob_score : p:float -> remaining_lifetime:int -> float
(** PROB's ranking key in the same scenario (just [p], 0 when expired). *)

val life_score : p:float -> remaining_lifetime:int -> float
(** LIFE's ranking key ([p · lifetime]). *)
