(** Open-addressed [int -> float] table; the float twin of {!Itab}.

    Values live in an unboxed float array, so lookups allocate nothing.
    [min_int] is reserved as the internal empty marker and must not be
    used as a key.  No removal. *)

type t

val create : ?size:int -> unit -> t
val mem : t -> int -> bool

val find_into : t -> int -> float array -> int -> bool
(** [find_into t k dst j] stores the value bound to [k] into [dst.(j)] and
    returns [true], or returns [false] leaving [dst] untouched if [k] is
    absent.  The value never leaves unboxed storage, so a lookup
    allocates nothing even where the call is not inlined. *)

val set : t -> int -> float -> unit
