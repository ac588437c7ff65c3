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
  mutable scratch : int array;
  mutable runs : int array; (* run boundaries, length >= n + 1 *)
  mutable heap : int array; (* for n >> capacity *)
}

let selector () =
  {
    items = [||];
    scores = [||];
    uids = [||];
    values = [||];
    order = [||];
    scratch = [||];
    runs = [||];
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
    sel.scratch <- Array.make cap 0;
    sel.runs <- Array.make (cap + 1) 0
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

(* [before scores uids a b]: candidate index [a] strictly precedes [b] in
   best-first order — higher score first, then higher (newer) uid.  This
   is exactly {!keep_top_spec}'s comparison [Float.compare s_b s_a < 0 ||
   (= 0 && uid_a > uid_b)] with Float.compare's total order (NaN below
   every number) spelled out as monomorphic float tests, so the sort
   below runs without closure dispatch or boxing. *)
let before (scores : float array) (uids : int array) (a : int) (b : int) =
  let sa = Array.unsafe_get scores a and sb = Array.unsafe_get scores b in
  if sa > sb then true
  else if sa < sb then false
  else if sa = sb then Array.unsafe_get uids a > Array.unsafe_get uids b
  else begin
    (* At least one NaN (never produced by in-repo policies). *)
    let na = sa <> sa and nb = sb <> sb in
    if na && nb then Array.unsafe_get uids a > Array.unsafe_get uids b else nb
  end

let merge (scores : float array) (uids : int array) (src : int array)
    (dst : int array) lo mid hi =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    let a = Array.unsafe_get src !i and b = Array.unsafe_get src !j in
    let sa = Array.unsafe_get scores a and sb = Array.unsafe_get scores b in
    if sa = sb || sa <> sa || sb <> sb then begin
      (* Equal scores or NaN: rare; the full comparison decides. *)
      if before scores uids b a then begin
        Array.unsafe_set dst !k b;
        incr j
      end
      else begin
        Array.unsafe_set dst !k a;
        incr i
      end;
      incr k
    end
    else begin
      (* Distinct finite scores: branch-free select.  Merging random
         score orders (RAND redraws every step) makes this comparison
         inherently unpredictable — data dependences beat the ~50%
         branch-mispredict tax. *)
      let t = Bool.to_int (sb > sa) in
      Array.unsafe_set dst !k (a + (t * (b - a)));
      j := !j + t;
      i := !i + 1 - t;
      incr k
    end
  done;
  (* Only one side can be non-empty; blit the drain (this is the whole
     merge when a long run of equal scores sits at the tail, e.g. a block
     of expired candidates all scored -inf). *)
  if !i < mid then Array.blit src !i dst !k (mid - !i)
  else if !j < hi then Array.blit src !j dst !k (hi - !j)

(* Natural-run merge sort of the candidate indices in [arr.(0 .. len-1)],
   best-first; stable; returns the array holding the sorted result ([arr]
   or [scratch]).  Adaptive on the simulator's actual step shapes:

   - candidates already in score order (the cache was sorted by last
     step's scores and many policies move scores coherently): one O(len)
     scan, no merging;
   - a long sorted prefix plus a handful of stragglers (typical when only
     the two arrivals and a few drifting scores are out of place): binary
     insertion of the tail, no full-width merge pass;
   - otherwise: merge the cheapest adjacent run pair first, so small runs
     coalesce among themselves before anything walks a long run (e.g.
     RAND's block of equally-scored dead candidates at the tail). *)
let sort_candidates (scores : float array) (uids : int array)
    (arr : int array) (scratch : int array) (runs : int array) len =
  let m = ref 1 in
  runs.(0) <- 0;
  for i = 1 to len - 1 do
    let cur = Array.unsafe_get arr i and prev = Array.unsafe_get arr (i - 1) in
    let sc = Array.unsafe_get scores cur
    and sp = Array.unsafe_get scores prev in
    if sc <> sc || sp <> sp then begin
      if before scores uids cur prev then begin
        runs.(!m) <- i;
        incr m
      end
    end
    else begin
      (* Branch-free [before scores uids cur prev]: store the would-be
         boundary unconditionally (the next store overwrites a dead one)
         and advance [m] by the comparison bit — random score orders
         would otherwise mispredict on half the elements. *)
      Array.unsafe_set runs !m i;
      let boundary =
        Bool.to_int (sc > sp)
        lor (Bool.to_int (sc = sp)
            land Bool.to_int
                   (Array.unsafe_get uids cur > Array.unsafe_get uids prev))
      in
      m := !m + boundary
    end
  done;
  runs.(!m) <- len;
  if !m = 1 then arr
  else if runs.(1) >= len - 8 then begin
    (* Long sorted prefix: binary-insert each straggler.  Inserting at the
       upper bound (first position the straggler strictly precedes) keeps
       equal elements in candidate order — the same stability the merge
       gives. *)
    for i = runs.(1) to len - 1 do
      let x = Array.unsafe_get arr i in
      let lo = ref 0 and hi = ref i in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if before scores uids x (Array.unsafe_get arr mid) then hi := mid
        else lo := mid + 1
      done;
      if !lo < i then begin
        Array.blit arr !lo arr (!lo + 1) (i - !lo);
        arr.(!lo) <- x
      end
    done;
    arr
  end
  else begin
    (* Bottom-up passes merging adjacent run pairs, ping-ponging between
       [arr] and [scratch].  The blit drain in [merge] makes a long
       equal-score run (RAND's block of dead candidates at the tail) cost
       one comparison stretch plus a memmove per pass rather than an
       element-wise walk. *)
    let src = ref arr and dst = ref scratch in
    while !m > 1 do
      let k = ref 0 and r = ref 0 in
      while !r < !m do
        let lo = runs.(!r) in
        if !r + 1 < !m then begin
          merge scores uids !src !dst lo runs.(!r + 1) runs.(!r + 2);
          r := !r + 2
        end
        else begin
          Array.blit !src lo !dst lo (runs.(!r + 1) - lo);
          r := !r + 1
        end;
        runs.(!k) <- lo;
        incr k
      done;
      runs.(!k) <- len;
      m := !k;
      let tmp = !src in
      src := !dst;
      dst := tmp
    done;
    !src
  end

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
    sort_candidates scores uids order sel.scratch sel.runs n
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
    sort_candidates scores uids heap sel.scratch sel.runs capacity
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
