type arc = int

let cost_scale = 1048576.0 (* 2^20 *)

type t = {
  mutable n : int;
  mutable m : int;
  mutable to_ : int array; (* internal arc id -> head *)
  mutable cap : int array; (* residual capacity *)
  mutable cost : int array; (* scaled integer cost *)
  mutable fcost : float array; (* original float cost (forward arcs) *)
  mutable next : int array;
  mutable head : int array;
  mutable solved : bool;
}

let create n =
  {
    n;
    m = 0;
    to_ = [||];
    cap = [||];
    cost = [||];
    fcost = [||];
    next = [||];
    head = Array.make n (-1);
    solved = false;
  }

let ensure g =
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
    g.cost <- grow g.cost 0;
    g.next <- grow g.next (-1);
    if Array.length g.fcost <= g.m then begin
      let f' = Array.make (max 16 (2 * Array.length g.fcost)) 0.0 in
      Array.blit g.fcost 0 f' 0 (Array.length g.fcost);
      g.fcost <- f'
    end
  end

let add_internal g src dst cap cost fcost =
  ensure g;
  let place i src dst cap cost =
    g.to_.(i) <- dst;
    g.cap.(i) <- cap;
    g.cost.(i) <- cost;
    g.next.(i) <- g.head.(src);
    g.head.(src) <- i
  in
  let fwd = 2 * g.m and bwd = (2 * g.m) + 1 in
  place fwd src dst cap cost;
  place bwd dst src 0 (-cost);
  g.fcost.(g.m) <- fcost;
  g.m <- g.m + 1;
  fwd / 2

let add_arc g ~src ~dst ~cap ~cost =
  if g.solved then invalid_arg "Scaling.add_arc: graph already solved";
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Scaling.add_arc: node out of range";
  if cap < 0 then invalid_arg "Scaling.add_arc: negative capacity";
  if not (Float.is_finite cost) then invalid_arg "Scaling.add_arc: bad cost";
  let scaled = int_of_float (Float.round (cost *. cost_scale)) in
  add_internal g src dst cap scaled cost

let of_graph (spec : Mcmf_check.graph) =
  let g = create spec.Mcmf_check.nodes in
  Array.iter
    (fun (src, dst, cap, cost) -> ignore (add_arc g ~src ~dst ~cap ~cost))
    spec.Mcmf_check.arcs;
  g

type result = { flow : int; cost : float }

(* Cost-scaling circulation: refine halves (here /8) epsilon until < 1,
   with all costs pre-multiplied by (n+1) so 1-optimality is optimality. *)
let run_circulation g =
  let n = g.n in
  let narcs = 2 * g.m in
  let price = Array.make n 0 in
  let excess = Array.make n 0 in
  let current = Array.make n (-1) in
  let reduced a =
    let u = g.to_.(a lxor 1) and v = g.to_.(a) in
    g.cost.(a) + price.(u) - price.(v)
  in
  let eps0 =
    let m = ref 0 in
    for a = 0 to narcs - 1 do
      if abs g.cost.(a) > !m then m := abs g.cost.(a)
    done;
    !m
  in
  if eps0 > 0 then begin
    let queue = Queue.create () in
    let in_queue = Array.make n false in
    let enqueue v =
      if (not in_queue.(v)) && excess.(v) > 0 then begin
        in_queue.(v) <- true;
        Queue.add v queue
      end
    in
    let eps = ref eps0 in
    let finished = ref false in
    while not !finished do
      eps := max 1 (!eps / 8);
      if !eps = 1 then finished := true;
      (* refine: saturate every residual arc with negative reduced cost. *)
      for a = 0 to narcs - 1 do
        if g.cap.(a) > 0 && reduced a < 0 then begin
          let u = g.to_.(a lxor 1) and v = g.to_.(a) in
          let delta = g.cap.(a) in
          g.cap.(a) <- 0;
          g.cap.(a lxor 1) <- g.cap.(a lxor 1) + delta;
          excess.(u) <- excess.(u) - delta;
          excess.(v) <- excess.(v) + delta
        end
      done;
      Queue.clear queue;
      Array.fill in_queue 0 n false;
      for v = 0 to n - 1 do
        current.(v) <- g.head.(v);
        enqueue v
      done;
      while not (Queue.is_empty queue) do
        let v = Queue.take queue in
        in_queue.(v) <- false;
        (* discharge v *)
        let continue = ref true in
        while !continue && excess.(v) > 0 do
          let a = current.(v) in
          if a < 0 then begin
            (* relabel: lift price to make some residual arc admissible. *)
            let best = ref min_int in
            let arc = ref g.head.(v) in
            while !arc >= 0 do
              if g.cap.(!arc) > 0 then begin
                let w = g.to_.(!arc) in
                let candidate = price.(w) - g.cost.(!arc) in
                if candidate > !best then best := candidate
              end;
              arc := g.next.(!arc)
            done;
            if !best = min_int then
              (* no residual arc at all: cannot happen for a node with
                 positive excess, but guard against infinite loops. *)
              continue := false
            else begin
              price.(v) <- !best - !eps;
              current.(v) <- g.head.(v)
            end
          end
          else if g.cap.(a) > 0 && reduced a < 0 then begin
            (* push *)
            let w = g.to_.(a) in
            let delta = min excess.(v) g.cap.(a) in
            g.cap.(a) <- g.cap.(a) - delta;
            g.cap.(a lxor 1) <- g.cap.(a lxor 1) + delta;
            excess.(v) <- excess.(v) - delta;
            excess.(w) <- excess.(w) + delta;
            enqueue w
          end
          else current.(v) <- g.next.(a)
        done
      done
    done
  end

let flow_on_internal g a = g.cap.((2 * a) + 1)
let flow_on g a = flow_on_internal g a

let solve g ~source ~sink ~target =
  if g.solved then invalid_arg "Scaling.solve: graph already solved";
  if source = sink then invalid_arg "Scaling.solve: source = sink";
  if target < 0 then invalid_arg "Scaling.solve: negative target";
  (* Profit on the return arc must dominate any simple path cost. *)
  let big =
    let acc = ref 1 in
    for a = 0 to g.m - 1 do
      acc := !acc + abs g.cost.(2 * a)
    done;
    !acc
  in
  let return_arc = add_internal g sink source target (-big) 0.0 in
  (* Multiply all costs by (n+1): 1-optimal integral circulations are then
     exactly optimal (Goldberg-Tarjan). *)
  let factor = g.n + 1 in
  for a = 0 to (2 * g.m) - 1 do
    g.cost.(a) <- g.cost.(a) * factor
  done;
  g.solved <- true;
  run_circulation g;
  let flow = flow_on_internal g return_arc in
  let cost = ref 0.0 in
  for a = 0 to g.m - 1 do
    if a <> return_arc then
      cost := !cost +. (float_of_int (flow_on_internal g a) *. g.fcost.(a))
  done;
  { flow; cost = !cost }
