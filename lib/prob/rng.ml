type t = Random.State.t

let create seed = Random.State.make [| seed; 0x5f3759df; seed lxor 0x9e3779b9 |]

let split rng =
  let a = Random.State.bits rng in
  let b = Random.State.bits rng in
  Random.State.make [| a; b; a lxor (b lsl 1) |]

let int rng n =
  assert (n > 0);
  Random.State.int rng n

let float rng x = Random.State.float rng x

(* The stdlib's own LXM step, declared with its unboxed native entry so
   the 64-bit draw stays in a register. *)
external lxm_next : Random.State.t -> (int64[@unboxed])
  = "caml_lxm_next" "caml_lxm_next_unboxed"
[@@noalloc]

(* [Random.State.float rng 1.0] step for step: the top 53 bits of one
   draw scaled by 2^-53, redrawn while they are all zero ([x *. 1.0 = x],
   so the stdlib's final scaling by the bound changes no bit). *)
let rec float_into rng (dst : float array) i =
  let n = Int64.shift_right_logical (lxm_next rng) 11 in
  if n <> 0L then dst.(i) <- Int64.to_float n *. 0x1.p-53
  else float_into rng dst i

let bool rng = Random.State.bool rng
let bernoulli rng p = Random.State.float rng 1.0 < p

let gaussian rng ~mu ~sigma =
  (* Box–Muller; guard against log 0. *)
  let u1 = max 1e-300 (Random.State.float rng 1.0) in
  let u2 = Random.State.float rng 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick rng a =
  assert (Array.length a > 0);
  a.(Random.State.int rng (Array.length a))
