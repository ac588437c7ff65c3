(* Monomorphic on purpose: an [int array] of payloads swaps without the
   [caml_modify] write barrier and the float-array tag check a polymorphic
   ['a array] pays on every store. *)
type t = {
  mutable prios : float array;
  mutable items : int array;
  mutable len : int;
}

let create () = { prios = [||]; items = [||]; len = 0 }
let is_empty h = h.len = 0
let size h = h.len
let clear h = h.len <- 0

let grow h =
  let cap = Array.length h.prios in
  if h.len = cap then begin
    let cap' = max 16 (2 * cap) in
    let prios' = Array.make cap' 0.0 in
    let items' = Array.make cap' 0 in
    Array.blit h.prios 0 prios' 0 h.len;
    Array.blit h.items 0 items' 0 h.len;
    h.prios <- prios';
    h.items <- items'
  end

(* Indices passed to [swap]/[sift_up]/[sift_down] are < h.len by
   construction, so unsafe accesses are in bounds. *)
let swap h i j =
  let prios = h.prios and items = h.items in
  let p = Array.unsafe_get prios i in
  Array.unsafe_set prios i (Array.unsafe_get prios j);
  Array.unsafe_set prios j p;
  let x = Array.unsafe_get items i in
  Array.unsafe_set items i (Array.unsafe_get items j);
  Array.unsafe_set items j x

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if Array.unsafe_get h.prios i < Array.unsafe_get h.prios parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let prios = h.prios in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && Array.unsafe_get prios l < Array.unsafe_get prios !smallest
  then smallest := l;
  if r < h.len && Array.unsafe_get prios r < Array.unsafe_get prios !smallest
  then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h prio item =
  grow h;
  h.prios.(h.len) <- prio;
  h.items.(h.len) <- item;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let peek_min h = if h.len = 0 then None else Some (h.prios.(0), h.items.(0))
let min_prio h = h.prios.(0)
let min_item h = h.items.(0)

let drop_min h =
  h.len <- h.len - 1;
  if h.len > 0 then begin
    h.prios.(0) <- h.prios.(h.len);
    h.items.(0) <- h.items.(h.len);
    sift_down h 0
  end

let pop_min h =
  if h.len = 0 then None
  else begin
    let result = (h.prios.(0), h.items.(0)) in
    drop_min h;
    Some result
  end
