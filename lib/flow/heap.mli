(** Array-backed binary min-heap of [(priority, payload)] pairs with float
    priorities and int payloads.

    Used as the Dijkstra frontier inside the min-cost-flow solver (the
    payload is a node id).  There is no decrease-key: callers insert
    duplicates and discard stale pops (lazy deletion), which is both
    simpler and fast enough here.  Monomorphic so that sifting stores
    unboxed floats and machine ints only. *)

type t

val create : unit -> t
val is_empty : t -> bool
val size : t -> int

val push : t -> float -> int -> unit
(** [push h priority payload]. *)

val pop_min : t -> (float * int) option
(** Remove and return the entry with the smallest priority. *)

val peek_min : t -> (float * int) option
val clear : t -> unit

(** Non-allocating decomposition of {!pop_min} for hot loops (the
    [(float * int) option] return boxes on every pop).  All three require
    a non-empty heap — guard with {!is_empty}. *)

val min_prio : t -> float
val min_item : t -> int
val drop_min : t -> unit
