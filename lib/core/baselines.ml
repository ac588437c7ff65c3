open Ssj_stream

(* Remaining-lifetime oracle for the baseline policies.  First-order
   representations of the two shipped shapes let the hot scoring loops
   below inline the death test (one compare per candidate) instead of
   paying a closure call per candidate per step; [Fn] keeps the fully
   general form available. *)
type lifetime =
  | Trend of { r_add : int; s_add : int; speed : int }
      (** Linear-trend streams: remaining = (value + add_side)/speed − now
          (see {!Ssj_workload.Config.lifetime} for the constants). *)
  | Of_window of { width : int }
      (** Sliding window: remaining = arrival + width − now. *)
  | Fn of (now:int -> Tuple.t -> int)

(* [remaining] on the uid/value representation the scoring loops read
   (uid = 2·arrival + side bit, so the pair carries the whole tuple).
   Inlined into those loops, so the first-order shapes cost an integer
   compare or two per candidate instead of a closure call; the shipped
   trend speed 1 skips the division ([x / 1 = x]). *)
let[@inline] remaining_uv lt ~now ~uid ~value =
  match lt with
  | Trend { r_add; s_add; speed } ->
    let x = value + if uid land 1 = 0 then r_add else s_add in
    (if speed = 1 then x else x / speed) - now
  | Of_window { width } -> (uid asr 1) + width - now
  | Fn f -> f ~now (Tuple.of_uid ~uid ~value)

let remaining lt ~now (t : Tuple.t) =
  remaining_uv lt ~now ~uid:t.Tuple.uid ~value:t.Tuple.value

let[@inline] alive lifetime ~now ~uid ~value =
  match lifetime with
  | None -> true
  | Some lt -> remaining_uv lt ~now ~uid ~value > 0

(* History frequency tracker: counts of each value seen per side.  Backed
   by dense counter arrays — stream values follow a trend, so the
   per-candidate count lookup (the per-step hot path of PROB and LIFE)
   stays on a few cache-hot lines instead of hashing across a table that
   accumulates every value ever seen. *)
module History = struct
  type t = { r_counts : Ssj_prob.Dtab.t; s_counts : Ssj_prob.Dtab.t }

  let create () =
    { r_counts = Ssj_prob.Dtab.create (); s_counts = Ssj_prob.Dtab.create () }

  let observe t (tuple : Tuple.t) =
    Ssj_prob.Dtab.add
      (match tuple.side with Tuple.R -> t.r_counts | Tuple.S -> t.s_counts)
      tuple.value 1

  (* Frequency of the value in the *partner* stream's history: an R
     candidate (uid bit 0) counts against the S history and vice
     versa. *)
  let[@inline] partner_count t ~uid ~value =
    Ssj_prob.Dtab.get (if uid land 1 = 0 then t.s_counts else t.r_counts) value
end

(* Every policy here is one {!Policy.scored} loop over the candidates'
   uid/value arrays.  Dead tuples (lifetime <= 0) score below every live
   tuple without consuming the scorer — RAND's RNG stream depends on
   it. *)

let rand ~rng ?lifetime () =
  Policy.scored ~name:"RAND" (fun ~now ~n ~uids ~values scores ->
      for i = 0 to n - 1 do
        Array.unsafe_set scores i
          (if
             alive lifetime ~now ~uid:(Array.unsafe_get uids i)
               ~value:(Array.unsafe_get values i)
           then Ssj_prob.Rng.float rng 1.0
           else Float.neg_infinity)
      done)

let prob ?lifetime () =
  let history = History.create () in
  Policy.scored ~name:"PROB" ~observe:(History.observe history)
    (fun ~now ~n ~uids ~values scores ->
      for i = 0 to n - 1 do
        let uid = Array.unsafe_get uids i
        and value = Array.unsafe_get values i in
        Array.unsafe_set scores i
          (if alive lifetime ~now ~uid ~value then
             float_of_int (History.partner_count history ~uid ~value)
           else Float.neg_infinity)
      done)

let life ~lifetime () =
  let history = History.create () in
  Policy.scored ~name:"LIFE" ~observe:(History.observe history)
    (fun ~now ~n ~uids ~values scores ->
      for i = 0 to n - 1 do
        let uid = Array.unsafe_get uids i
        and value = Array.unsafe_get values i in
        let rem = remaining_uv lifetime ~now ~uid ~value in
        Array.unsafe_set scores i
          (if rem <= 0 then Float.neg_infinity
           else
             float_of_int (History.partner_count history ~uid ~value)
             *. float_of_int rem)
      done)

let prob_model ~partner_prob () =
  Policy.scored ~name:"PROB-model" (fun ~now:_ ~n ~uids ~values scores ->
      for i = 0 to n - 1 do
        scores.(i) <-
          partner_prob (Tuple.of_uid ~uid:uids.(i) ~value:values.(i))
      done)
