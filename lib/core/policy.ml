open Ssj_stream

module Obs = Ssj_obs.Obs

(* Selection observability.  [policy.score_tie_pairs] counts adjacent
   equal-score pairs in the best-first order and
   [policy.boundary_score_ties] counts steps where the last kept and the
   first dropped candidate tie — the direct diagnostic for a degenerate
   sweep: when eviction is decided by the uid tie-break instead of the
   score, every policy makes the same decision and a benchmark over
   policies measures nothing. *)
let m_selections = Obs.Counter.create "policy.selections"
let m_candidates = Obs.Counter.create "policy.candidates"
let m_evictions = Obs.Counter.create "policy.evictions"
let m_dead_candidates = Obs.Counter.create "policy.dead_candidates"
let m_tie_pairs = Obs.Counter.create "policy.score_tie_pairs"
let m_boundary_ties = Obs.Counter.create "policy.boundary_score_ties"

(* [sorted.(0 .. sorted_n - 1)] is the best-first candidate order ([n]
   candidates scored, [k] kept; [sorted_n < n] on the heap path, where
   only the survivors were ordered). *)
let observe_selection (scores : float array) (sorted : int array) ~n ~k
    ~sorted_n =
  Obs.Counter.incr m_selections;
  Obs.Counter.add m_candidates n;
  if n > k then Obs.Counter.add m_evictions (n - k);
  let dead = ref 0 in
  for i = 0 to n - 1 do
    if scores.(i) = Float.neg_infinity then incr dead
  done;
  Obs.Counter.add m_dead_candidates !dead;
  let ties = ref 0 in
  for j = 1 to sorted_n - 1 do
    if scores.(sorted.(j - 1)) = scores.(sorted.(j)) then incr ties
  done;
  Obs.Counter.add m_tie_pairs !ties;
  if k < sorted_n && scores.(sorted.(k - 1)) = scores.(sorted.(k)) then
    Obs.Counter.incr m_boundary_ties

(* Engine-owned cache buffer for the array-native fast path: the current
   cache contents, best-first, as parallel int arrays
   [uids.(0 .. n-1)] / [values.(0 .. n-1)].  The uid encodes the rest of
   the tuple (uid = 2·arrival + side bit), so two unboxed arrays carry
   the whole cache: scoring loops read sequential machine ints and the
   per-step rewrite of the selection never touches the pointer write
   barrier.  The remaining fields describe the step that produced the
   contents — the previous cache's diff against them — so the join index
   can be maintained in O(changes) instead of rescanning both caches.
   [evicted_n = -1] means the diff was not computed (heap-selection
   path, or a list [select] copied in by the engine) and the caller must
   fall back to a full two-sided sweep. *)
type buffer = {
  mutable uids : int array;
  mutable values : int array;
  mutable n : int;
  mutable evicted : int array; (* positions (in the previous buffer)
                                  of the cached tuples dropped this step *)
  mutable evicted_n : int;
  mutable kept_r : bool; (* did the R arrival enter the cache? *)
  mutable kept_s : bool;
}

let buffer () =
  {
    uids = [||];
    values = [||];
    n = 0;
    evicted = [||];
    evicted_n = -1;
    kept_r = false;
    kept_s = false;
  }

(* Empty-selection step: what a fast path records when capacity <= 0. *)
let clear (dst : buffer) =
  dst.n <- 0;
  dst.evicted_n <- 0;
  dst.kept_r <- false;
  dst.kept_s <- false

type fast_select =
  src:buffer ->
  dst:buffer ->
  now:int ->
  r:Tuple.t ->
  s:Tuple.t ->
  capacity:int ->
  unit

type join = {
  name : string;
  select :
    now:int ->
    cached:Tuple.t list ->
    arrivals:Tuple.t list ->
    capacity:int ->
    Tuple.t list;
  fast : fast_select option;
}

let make_join ~name select = { name; select; fast = None }

type cache = {
  cname : string;
  access :
    now:int -> cached:int list -> value:int -> hit:bool -> capacity:int -> int list;
}

let validate_join_selection ~cached ~arrivals ~capacity result =
  let candidates = cached @ arrivals in
  let mem t = List.exists (Tuple.equal t) candidates in
  if List.length result > capacity then
    Error
      (Printf.sprintf "selection of size %d exceeds capacity %d"
         (List.length result) capacity)
  else if not (List.for_all mem result) then
    Error "selection contains a tuple that is neither cached nor arriving"
  else begin
    let sorted = List.sort Tuple.compare result in
    let rec dup = function
      | a :: (b :: _ as rest) -> if Tuple.equal a b then true else dup rest
      | [ _ ] | [] -> false
    in
    if dup sorted then Error "selection contains duplicates" else Ok ()
  end

(* Reference implementation: full stable sort of the scored candidates,
   score ties broken newer-first (uids are distinct, so the order is
   total).  Kept as the oracle for the property tests of the
   bounded-selection version below; both return the survivors
   best-first. *)
let keep_top_spec ~capacity ~score candidates =
  if capacity <= 0 then []
  else begin
    let scored = List.map (fun t -> (score t, t)) candidates in
    let ordered =
      List.sort
        (fun (sa, (ta : Tuple.t)) (sb, (tb : Tuple.t)) ->
          match Float.compare sb sa with
          | 0 -> Int.compare tb.Tuple.uid ta.Tuple.uid
          | c -> c)
        scored
    in
    List.filteri (fun i _ -> i < capacity) ordered |> List.map snd
  end

(* ------------------------------------------------------------------ *)
(* Bounded selection with reusable scratch                             *)
(* ------------------------------------------------------------------ *)

(* Per-policy scratch buffers: candidates, their scores (unboxed float
   array), uids and values live in flat arrays reused across steps, so a
   selection allocates only the result list.  A selector belongs to one
   policy instance and must not be shared across domains — the parallel
   runner builds one policy (hence one selector) per trace. *)
type selector = {
  mutable items : Tuple.t array; (* list path only *)
  mutable scores : float array;
  mutable uids : int array;
  mutable values : int array;
  mutable order : int array;
  mutable keys : float array; (* keys.(j) = scores.(order.(j)) while sorting *)
  mutable heap : int array; (* for n >> capacity *)
}

let selector () =
  {
    items = [||];
    scores = [||];
    uids = [||];
    values = [||];
    order = [||];
    keys = [||];
    heap = [||];
  }

let dummy = Tuple.make ~side:Tuple.R ~value:0 ~arrival:0

(* Growth preserves the filled prefix of items/uids/values: [fill] below
   grows mid-stream, once the candidate count outruns the buffers. *)
let ensure sel n =
  let old = Array.length sel.items in
  if old < n then begin
    let cap = max 16 (max n (2 * old)) in
    let items = Array.make cap dummy
    and uids = Array.make cap 0
    and values = Array.make cap 0 in
    Array.blit sel.items 0 items 0 old;
    Array.blit sel.uids 0 uids 0 old;
    Array.blit sel.values 0 values 0 old;
    sel.items <- items;
    sel.scores <- Array.make cap 0.0;
    sel.uids <- uids;
    sel.values <- values;
    sel.order <- Array.make cap 0;
    sel.keys <- Array.make cap 0.0
  end

(* Append the list's tuples (and their uids and values) starting at slot
   [i]; returns the next free slot.  Top-level recursion to avoid a
   per-call closure. *)
let rec fill sel i = function
  | [] -> i
  | (t : Tuple.t) :: rest ->
    if i >= Array.length sel.items then ensure sel (i + 1);
    Array.unsafe_set sel.items i t;
    Array.unsafe_set sel.uids i t.Tuple.uid;
    Array.unsafe_set sel.values i t.Tuple.value;
    fill sel (i + 1) rest

(* [precedes sa ua sb ub]: the candidate with score [sa] and uid [ua]
   strictly precedes the one with [sb], [ub] in best-first order — higher
   score first, then higher (newer) uid.  This is exactly
   {!keep_top_spec}'s comparison [Float.compare sb sa < 0 || (= 0 && ua >
   ub)] with Float.compare's total order spelled out as monomorphic float
   tests: [-0.0 = 0.0], and NaN equals NaN and sits below every number,
   -infinity included (the last disjunct; no in-repo policy scores
   NaN). *)
let[@inline] precedes (sa : float) (ua : int) (sb : float) (ub : int) =
  sa > sb || (sa = sb && ua > ub) || (sb <> sb && (sa = sa || ua > ub))

let[@inline] before (scores : float array) (uids : int array) a b =
  precedes (Array.unsafe_get scores a) (Array.unsafe_get uids a)
    (Array.unsafe_get scores b) (Array.unsafe_get uids b)

(* Sort the candidate indices [order.(0 .. len-1)] best-first by straight
   insertion.  Each index carries its score in the parallel [keys]
   (filled here in the same order, then permuted alongside), so the inner
   loop compares and shifts sequential unboxed floats instead of chasing
   [scores.(order.(j))].  Stable.  The simulator's steady-state sort has
   ~27 candidates and ~50 inversions, where insertion beats run
   detection and merging. *)
let sort_best_first (keys : float array) (scores : float array)
    (uids : int array) (order : int array) len =
  for j = 0 to len - 1 do
    Array.unsafe_set keys j (Array.unsafe_get scores (Array.unsafe_get order j))
  done;
  for i = 1 to len - 1 do
    let x = Array.unsafe_get order i and kx = Array.unsafe_get keys i in
    let ux = Array.unsafe_get uids x in
    let j = ref (i - 1) in
    while
      !j >= 0
      && precedes kx ux (Array.unsafe_get keys !j)
           (Array.unsafe_get uids (Array.unsafe_get order !j))
    do
      Array.unsafe_set order (!j + 1) (Array.unsafe_get order !j);
      Array.unsafe_set keys (!j + 1) (Array.unsafe_get keys !j);
      decr j
    done;
    Array.unsafe_set order (!j + 1) x;
    Array.unsafe_set keys (!j + 1) kx
  done

let rec build_result (items : Tuple.t array) (order : int array) i acc =
  if i < 0 then acc
  else
    build_result items order (i - 1)
      (Array.unsafe_get items (Array.unsafe_get order i) :: acc)

let result_of_prefix items order k = build_result items order (k - 1) []

(* Best-first indices of the top [capacity] of [n] filled candidates:
   returns the array holding them (prefix of length [min n capacity]).
   Assumes [n > 0], [capacity > 0] and [ensure sel n] done. *)
let top_indices sel (scores : float array) (uids : int array) n capacity =
  if n <= 2 * capacity then begin
    (* Near-full selection (the simulator's steady state has
       n = capacity + 2): sort everything, keep the prefix. *)
    let order = sel.order in
    for i = 0 to n - 1 do
      Array.unsafe_set order i i
    done;
    sort_best_first sel.keys scores uids order n;
    order
  end
  else begin
    (* n >> capacity: size-[capacity] heap with the worst survivor at
       the root; O(n log capacity) instead of O(n log n). *)
    if Array.length sel.heap < capacity then sel.heap <- Array.make capacity 0;
    let heap = sel.heap in
    (* Max-heap under "comes later": the root is the worst kept. *)
    for i = 0 to capacity - 1 do
      heap.(i) <- i;
      let j = ref i in
      let continue = ref true in
      while !continue && !j > 0 do
        let parent = (!j - 1) / 2 in
        if before scores uids heap.(parent) heap.(!j) then begin
          let tmp = heap.(!j) in
          heap.(!j) <- heap.(parent);
          heap.(parent) <- tmp;
          j := parent
        end
        else continue := false
      done
    done;
    for i = capacity to n - 1 do
      if before scores uids i heap.(0) then begin
        heap.(0) <- i;
        let j = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !j) + 1 and r = (2 * !j) + 2 in
          let w = ref !j in
          if l < capacity && before scores uids heap.(!w) heap.(l) then w := l;
          if r < capacity && before scores uids heap.(!w) heap.(r) then w := r;
          if !w <> !j then begin
            let tmp = heap.(!j) in
            heap.(!j) <- heap.(!w);
            heap.(!w) <- tmp;
            j := !w
          end
          else continue := false
        done
      end
    done;
    sort_best_first sel.keys scores uids heap capacity;
    heap
  end

(* List selection behind {!select_top} and {!scored}'s [select]: the
   candidates are cached-then-arrivals, in list order; [score_all n]
   fills [sel.scores.(0 .. n-1)] left to right, so a stateful score
   (RAND's RNG draws) sees them in the spec's [List.map] order. *)
let select_list sel ~capacity ~cached ~arrivals score_all =
  if capacity <= 0 then []
  else begin
    let n = fill sel (fill sel 0 cached) arrivals in
    if n = 0 then []
    else begin
      score_all n;
      let sorted = top_indices sel sel.scores sel.uids n capacity in
      let k = if n < capacity then n else capacity in
      if Obs.on () then
        observe_selection sel.scores sorted ~n ~k
          ~sorted_n:(if n <= 2 * capacity then n else capacity);
      result_of_prefix sel.items sorted k
    end
  end

let select_top sel ~capacity ~score ~cached ~arrivals =
  select_list sel ~capacity ~cached ~arrivals (fun n ->
      let items = sel.items and scores = sel.scores in
      for i = 0 to n - 1 do
        Array.unsafe_set scores i (score (Array.unsafe_get items i))
      done)

let keep_top ~capacity ~score candidates =
  select_top (selector ()) ~capacity ~score ~cached:candidates ~arrivals:[]

(* Selection tail of the buffer path: candidate [i] is [src]'s slot [i]
   for [i < src.n], then [r], then [s], and the scratch holds every
   candidate's score, uid and value — so a step writes only machine ints
   (no pointer stores, no write barrier).  Requires [capacity > 0]. *)
let select_prescored sel ~capacity ~(src : buffer) ~(dst : buffer) =
  let n0 = src.n in
  let n = n0 + 2 in
  let scores = sel.scores and uids = sel.uids and values = sel.values in
  let sorted = top_indices sel scores uids n capacity in
  let k = if n < capacity then n else capacity in
  if Obs.on () then
    observe_selection scores sorted ~n ~k
      ~sorted_n:(if n <= 2 * capacity then n else capacity);
  if Array.length dst.uids < k then begin
    let cap = max 16 (2 * k) in
    dst.uids <- Array.make cap 0;
    dst.values <- Array.make cap 0
  end;
  let out_u = dst.uids and out_v = dst.values in
  dst.kept_r <- false;
  dst.kept_s <- false;
  for j = 0 to k - 1 do
    let idx = Array.unsafe_get sorted j in
    Array.unsafe_set out_u j (Array.unsafe_get uids idx);
    Array.unsafe_set out_v j (Array.unsafe_get values idx);
    if idx = n0 then dst.kept_r <- true
    else if idx > n0 then dst.kept_s <- true
  done;
  dst.n <- k;
  if n <= 2 * capacity then begin
    (* Full-sort path: [sorted] holds all [n] candidates, so its suffix
       is exactly the dropped set — in the steady state two tuples, and
       the join index can be maintained in O(diff). *)
    if Array.length dst.evicted < n - k then
      dst.evicted <- Array.make (max 16 (2 * (n - k))) 0;
    let ev = dst.evicted in
    let en = ref 0 in
    for j = k to n - 1 do
      let idx = Array.unsafe_get sorted j in
      if idx < n0 then begin
        Array.unsafe_set ev !en idx;
        incr en
      end
    done;
    dst.evicted_n <- !en
  end
  else dst.evicted_n <- -1 (* heap path: dropped set not enumerated *)

type score =
  now:int -> n:int -> uids:int array -> values:int array -> float array -> unit

(* One scoring loop, two entry points.  Both observe the step's arrivals
   first, then score every candidate — cached ones, then the arrivals —
   in one call, so the list [select] and the buffer [fast] decide
   identically by construction. *)
let scored ~name ?(observe = ignore) (score : score) =
  let sel = selector () in
  let select ~now ~cached ~arrivals ~capacity =
    List.iter observe arrivals;
    select_list sel ~capacity ~cached ~arrivals (fun n ->
        score ~now ~n ~uids:sel.uids ~values:sel.values sel.scores)
  in
  let fast ~(src : buffer) ~dst ~now ~(r : Tuple.t) ~(s : Tuple.t) ~capacity
      =
    observe r;
    observe s;
    if capacity <= 0 then clear dst
    else begin
      let n0 = src.n in
      let n = n0 + 2 in
      ensure sel n;
      let uids = sel.uids and values = sel.values in
      let su = src.uids and sv = src.values in
      (* A plain loop, not [Array.blit]: the runtime blits into an
         old-generation array through [caml_modify], element by
         element. *)
      for i = 0 to n0 - 1 do
        Array.unsafe_set uids i (Array.unsafe_get su i);
        Array.unsafe_set values i (Array.unsafe_get sv i)
      done;
      uids.(n0) <- r.Tuple.uid;
      values.(n0) <- r.Tuple.value;
      uids.(n0 + 1) <- s.Tuple.uid;
      values.(n0 + 1) <- s.Tuple.value;
      score ~now ~n ~uids ~values sel.scores;
      select_prescored sel ~capacity ~src ~dst
    end
  in
  { name; select; fast = Some fast }
