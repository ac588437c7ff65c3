(** Stream tuples.

    One tuple arrives per stream per time step (Section 2).  Tuples with
    equal join-attribute values are still distinct objects — [uid] keeps
    them apart, so that "two R tuples with the same value joining the same
    S tuple produce two result tuples" holds by construction. *)

type side = R | S

val partner : side -> side
val side_to_string : side -> string

type t = {
  side : side;
  value : int;  (** join attribute *)
  arrival : int;  (** time step at which the tuple was produced *)
  uid : int;  (** unique across both streams of a run *)
}

val make : side:side -> value:int -> arrival:int -> t
(** Computes [uid] canonically as [2·arrival + (0 for R | 1 for S)], which
    is unique because each stream emits exactly one tuple per step. *)

val of_uid : uid:int -> value:int -> t
(** The tuple with this canonical uid and value — the inverse of
    {!make}'s uid encoding, for code that carries tuples as uid/value
    pairs. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
