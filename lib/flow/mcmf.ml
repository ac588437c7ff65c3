type arc = int

module Obs = Ssj_obs.Obs

(* Observability: solver activity and arena reuse.  [mcmf.graph_reuse]
   counting every [reset] against [mcmf.graph_create] is the direct
   measure of how often FlowExpect's handle amortises graph allocation. *)
let m_graph_create = Obs.Counter.create "mcmf.graph_create"
let m_graph_reuse = Obs.Counter.create "mcmf.graph_reuse"
let m_solves = Obs.Counter.create "mcmf.solves"
let m_dijkstra_calls = Obs.Counter.create "mcmf.dijkstra_calls"
let m_dijkstra_pops = Obs.Counter.create "mcmf.dijkstra_pops"
let m_augmentations = Obs.Counter.create "mcmf.augmentations"

type t = {
  mutable n : int;
  mutable m : int; (* number of user arcs; internal arcs = 2 * m *)
  mutable to_ : int array; (* indexed by internal arc id *)
  mutable cap : int array;
  mutable cost : float array;
  mutable solved : bool;
  (* CSR adjacency, rebuilt once per solve (arcs sorted by source node in
     insertion order): adj_arc.(adj_start.(v) .. adj_start.(v+1)-1) are
     the internal arcs out of v.  Flat and cache-friendly where the old
     per-arc linked chains pointer-chased all over the arc arrays. *)
  mutable adj_start : int array; (* length ≥ n + 1 *)
  mutable adj_arc : int array; (* length ≥ 2m *)
  (* Solver scratch, kept across [reset] so a solver handle reused every
     step (FlowExpect) stops churning the allocator: node-indexed arrays
     are grown on demand and re-filled per solve, the Dijkstra frontier
     heap is cleared per call. *)
  mutable pot : float array;
  mutable dist : float array;
  mutable pred_arc : int array;
  mutable flag : bool array; (* Bellman–Ford in-queue marks *)
  mutable order : int array; (* topological order scratch *)
  mutable indegree : int array;
  heap : int Heap.t;
}

let create n =
  Obs.Counter.incr m_graph_create;
  {
    n;
    m = 0;
    to_ = [||];
    cap = [||];
    cost = [||];
    solved = false;
    adj_start = [||];
    adj_arc = [||];
    pot = [||];
    dist = [||];
    pred_arc = [||];
    flag = [||];
    order = [||];
    indegree = [||];
    heap = Heap.create ();
  }

let reset g ~n =
  if n < 1 then invalid_arg "Mcmf.reset: n < 1";
  Obs.Counter.incr m_graph_reuse;
  g.n <- n;
  g.m <- 0;
  g.solved <- false

let node_count g = g.n
let arc_count g = g.m

let ensure_capacity g =
  let need = 2 * (g.m + 1) in
  let have = Array.length g.to_ in
  if need > have then begin
    let cap' = max 32 (2 * have) in
    let grow a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    g.to_ <- grow g.to_ 0;
    g.cap <- grow g.cap 0;
    g.cost <- grow g.cost 0.0
  end

(* The source of internal arc [a] is the head of its twin. *)
let arc_src g a = g.to_.(a lxor 1)

let add_internal g src dst cap cost =
  ensure_capacity g;
  let fwd = 2 * g.m and bwd = (2 * g.m) + 1 in
  g.to_.(fwd) <- dst;
  g.cap.(fwd) <- cap;
  g.cost.(fwd) <- cost;
  g.to_.(bwd) <- src;
  g.cap.(bwd) <- 0;
  g.cost.(bwd) <- -.cost;
  g.m <- g.m + 1;
  fwd / 2

let add_arc g ~src ~dst ~cap ~cost =
  if g.solved then invalid_arg "Mcmf.add_arc: graph already solved";
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Mcmf.add_arc: node out of range";
  if cap < 0 then invalid_arg "Mcmf.add_arc: negative capacity";
  if not (Float.is_finite cost) then invalid_arg "Mcmf.add_arc: non-finite cost";
  add_internal g src dst cap cost

type result = { flow : int; cost : float }

let infinity_dist = Float.max_float

let ensure_scratch g =
  if Array.length g.pot < g.n then begin
    let cap = max g.n (2 * Array.length g.pot) in
    g.pot <- Array.make cap 0.0;
    g.dist <- Array.make cap 0.0;
    g.pred_arc <- Array.make cap (-1);
    g.flag <- Array.make cap false;
    g.order <- Array.make cap 0;
    g.indegree <- Array.make cap 0
  end

let build_adjacency g =
  ensure_scratch g;
  let narcs = 2 * g.m in
  if Array.length g.adj_start < g.n + 1 then
    g.adj_start <- Array.make (max (g.n + 1) (2 * Array.length g.adj_start)) 0;
  if Array.length g.adj_arc < narcs then
    g.adj_arc <- Array.make (max narcs (2 * Array.length g.adj_arc)) 0;
  let start = g.adj_start in
  Array.fill start 0 (g.n + 1) 0;
  for a = 0 to narcs - 1 do
    let s = arc_src g a in
    start.(s + 1) <- start.(s + 1) + 1
  done;
  for v = 1 to g.n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  (* Fill each node's range in descending arc id, matching the traversal
     order of the linked chains this layout replaced (head = last added);
     keeps path tie-breaking, and thus solver output, bit-identical. *)
  let cursor = g.indegree in
  Array.blit start 0 cursor 0 g.n;
  for a = narcs - 1 downto 0 do
    let s = arc_src g a in
    g.adj_arc.(cursor.(s)) <- a;
    cursor.(s) <- cursor.(s) + 1
  done

(* Bellman–Ford (queue-based) over residual arcs, to obtain initial
   potentials that make all reduced costs non-negative. *)
let bellman_ford g source dist =
  Array.fill dist 0 g.n infinity_dist;
  dist.(source) <- 0.0;
  let in_queue = g.flag in
  Array.fill in_queue 0 g.n false;
  let q = Queue.create () in
  Queue.add source q;
  in_queue.(source) <- true;
  let rounds = ref 0 in
  let limit = g.n * (2 * g.m) in
  while not (Queue.is_empty q) do
    incr rounds;
    if !rounds > limit + g.n then failwith "Mcmf: negative cycle detected";
    let u = Queue.take q in
    in_queue.(u) <- false;
    for idx = g.adj_start.(u) to g.adj_start.(u + 1) - 1 do
      let a = g.adj_arc.(idx) in
      if g.cap.(a) > 0 then begin
        let v = g.to_.(a) in
        let nd = dist.(u) +. g.cost.(a) in
        if nd < dist.(v) -. 1e-12 then begin
          dist.(v) <- nd;
          if not in_queue.(v) then begin
            Queue.add v q;
            in_queue.(v) <- true
          end
        end
      end
    done
  done

(* Dijkstra on reduced costs; fills [dist] and [pred_arc] (internal arc id
   used to reach each node, or -1).  Stops as soon as [sink] is settled:
   the shortest source→sink path is then final, and the caller caps the
   potential update of unsettled nodes at [dist sink], which keeps every
   reduced cost non-negative (the standard early-exit SSP refinement). *)
let dijkstra g source sink pot dist pred_arc heap =
  Array.fill dist 0 g.n infinity_dist;
  Array.fill pred_arc 0 g.n (-1);
  Heap.clear heap;
  dist.(source) <- 0.0;
  Heap.push heap 0.0 source;
  let pops = ref 0 in
  let continue = ref true in
  while !continue do
    if Heap.is_empty heap then continue := false
    else begin
      let d = Heap.min_prio heap in
      let u = Heap.min_item heap in
      Heap.drop_min heap;
      incr pops;
      if u = sink then continue := false
      else if d <= Array.unsafe_get dist u +. 1e-12 then begin
        let adj_arc = g.adj_arc and cap = g.cap and to_ = g.to_ in
        let cost = g.cost in
        let du = Array.unsafe_get dist u and pu = Array.unsafe_get pot u in
        for idx = g.adj_start.(u) to g.adj_start.(u + 1) - 1 do
          let a = Array.unsafe_get adj_arc idx in
          if Array.unsafe_get cap a > 0 then begin
            let v = Array.unsafe_get to_ a in
            let pv = Array.unsafe_get pot v in
            if pv < infinity_dist then begin
              (* Reduced cost is non-negative in exact arithmetic; clamp
                 tiny negatives from float rounding. *)
              let rc = max 0.0 (Array.unsafe_get cost a +. pu -. pv) in
              let nd = du +. rc in
              if nd < Array.unsafe_get dist v -. 1e-15 then begin
                Array.unsafe_set dist v nd;
                Array.unsafe_set pred_arc v a;
                Heap.push heap nd v
              end
            end
          end
        done
      end
    end
  done;
  if Obs.on () then begin
    Obs.Counter.incr m_dijkstra_calls;
    Obs.Counter.add m_dijkstra_pops !pops
  end

let path_true_cost g pred_arc sink =
  let rec go v acc =
    let a = pred_arc.(v) in
    if a < 0 then acc else go g.to_.(a lxor 1) (acc +. g.cost.(a))
  in
  go sink 0.0

(* Shortest distances from [source] over positive-capacity arcs of an
   acyclic graph, via one topological pass (Kahn).  Returns false (leaving
   [dist] unspecified) if a cycle is detected. *)
let dag_distances g source dist =
  let indegree = g.indegree in
  Array.fill indegree 0 g.n 0;
  for a = 0 to (2 * g.m) - 1 do
    if g.cap.(a) > 0 then indegree.(g.to_.(a)) <- indegree.(g.to_.(a)) + 1
  done;
  let order = g.order in
  let count = ref 0 in
  let q = Queue.create () in
  for v = 0 to g.n - 1 do
    if indegree.(v) = 0 then Queue.add v q
  done;
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    order.(!count) <- v;
    incr count;
    for idx = g.adj_start.(v) to g.adj_start.(v + 1) - 1 do
      let a = g.adj_arc.(idx) in
      if g.cap.(a) > 0 then begin
        let w = g.to_.(a) in
        indegree.(w) <- indegree.(w) - 1;
        if indegree.(w) = 0 then Queue.add w q
      end
    done
  done;
  if !count < g.n then false
  else begin
    Array.fill dist 0 g.n infinity_dist;
    dist.(source) <- 0.0;
    for i = 0 to g.n - 1 do
      let v = order.(i) in
      if dist.(v) < infinity_dist then begin
        for idx = g.adj_start.(v) to g.adj_start.(v + 1) - 1 do
          let a = g.adj_arc.(idx) in
          if g.cap.(a) > 0 then begin
            let w = g.to_.(a) in
            let nd = dist.(v) +. g.cost.(a) in
            if nd < dist.(w) then dist.(w) <- nd
          end
        done
      end
    done;
    true
  end

let run ?(acyclic = false) ?breakpoints g ~source ~sink ~target
    ~stop_at_nonnegative =
  if g.solved then invalid_arg "Mcmf.solve: graph already solved";
  g.solved <- true;
  if source = sink then invalid_arg "Mcmf.solve: source = sink";
  Obs.Counter.incr m_solves;
  build_adjacency g;
  let pot = g.pot and dist = g.dist and pred_arc = g.pred_arc in
  let heap = g.heap in
  if not (acyclic && dag_distances g source dist) then
    bellman_ford g source dist;
  (* Unreachable nodes keep potential 0; they can never join an augmenting
     path (see comment in the .mli), so their reduced costs are irrelevant. *)
  for v = 0 to g.n - 1 do
    pot.(v) <- (if dist.(v) < infinity_dist then dist.(v) else infinity_dist)
  done;
  let total_flow = ref 0 and total_cost = ref 0.0 in
  let continue = ref true in
  while !continue && !total_flow < target do
    dijkstra g source sink pot dist pred_arc heap;
    if dist.(sink) >= infinity_dist then continue := false
    else begin
      let path_cost = path_true_cost g pred_arc sink in
      if stop_at_nonnegative && path_cost >= -1e-12 then continue := false
      else begin
        (* Bottleneck along the augmenting path. *)
        let rec bottleneck v acc =
          let a = pred_arc.(v) in
          if a < 0 then acc
          else bottleneck g.to_.(a lxor 1) (min acc g.cap.(a))
        in
        let push = min (bottleneck sink max_int) (target - !total_flow) in
        let rec apply v =
          let a = pred_arc.(v) in
          if a >= 0 then begin
            g.cap.(a) <- g.cap.(a) - push;
            g.cap.(a lxor 1) <- g.cap.(a lxor 1) + push;
            apply g.to_.(a lxor 1)
          end
        in
        apply sink;
        Obs.Counter.incr m_augmentations;
        total_flow := !total_flow + push;
        total_cost := !total_cost +. (float_of_int push *. path_cost);
        (match breakpoints with
        | Some acc -> acc := (!total_flow, !total_cost) :: !acc
        | None -> ());
        (* Johnson potential update capped at the sink's distance: nodes
           the early-exit search did not settle — including those it
           never reached — have dist ≥ dist(sink), so adding
           min(dist, dsink) to every potential keeps all reduced costs
           non-negative while charging unsettled nodes only what the
           finished path proved. *)
        let dsink = dist.(sink) in
        for v = 0 to g.n - 1 do
          if pot.(v) < infinity_dist then
            pot.(v) <- pot.(v) +. min dist.(v) dsink
        done
      end
    end
  done;
  { flow = !total_flow; cost = !total_cost }

let solve ?acyclic g ~source ~sink ~target =
  run ?acyclic g ~source ~sink ~target ~stop_at_nonnegative:false

let solve_curve ?acyclic g ~source ~sink ~target =
  let acc = ref [] in
  let result =
    run ?acyclic ~breakpoints:acc g ~source ~sink ~target
      ~stop_at_nonnegative:false
  in
  (List.rev !acc, result)

let solve_min_cost_max_flow g ~source ~sink =
  run g ~source ~sink ~target:max_int ~stop_at_nonnegative:true

let flow_on g a =
  (* Flow on user arc [a] equals the residual capacity of its twin. *)
  g.cap.((2 * a) + 1)

let arc_endpoints g a = (g.to_.((2 * a) + 1), g.to_.(2 * a))
let arc_cost (g : t) a = g.cost.(2 * a)
let arc_cap g a = g.cap.(2 * a) + g.cap.((2 * a) + 1)
