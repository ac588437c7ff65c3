(** Cost-scaling min-cost flow — Goldberg's algorithm \[9\], the solver the
    paper invokes for its complexity bound (O(n² m log n)).

    A reference solver, like {!Mcmf_check}: production solves go through
    {!Mcmf}.  It shares no code with {!Mcmf}: ε-optimality scaling with
    push/relabel refinement on a min-cost *circulation* (the source→sink
    demand is expressed through a high-profit return arc).  Float costs
    are fixed-point-scaled to integers internally (2^20 steps per unit),
    so optima agree with {!Mcmf} exactly on integer-cost inputs and to
    ~1e-6 relative on probability-valued costs — both facts are
    property-tested, the latter on FlowExpect's own graphs. *)

type t

type arc = private int

val create : int -> t
(** [create n]: empty graph on nodes [0 .. n-1]. *)

val add_arc : t -> src:int -> dst:int -> cap:int -> cost:float -> arc

val of_graph : Mcmf_check.graph -> t
(** A fresh graph holding [spec]'s arcs, in order. *)

type result = { flow : int; cost : float }

val solve : t -> source:int -> sink:int -> target:int -> result
(** Push up to [target] units at minimum cost (maximum achievable flow if
    the network cannot carry [target]).  One-shot per graph. *)

val flow_on : t -> arc -> int
