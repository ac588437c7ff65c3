open Ssj_stream
open Ssj_model
open Ssj_flow

module Obs = Ssj_obs.Obs

let m_decides = Obs.Counter.create "flow_expect.decides"

type plan = { keep : Tuple.t list; expected_benefit : float }
type handle = { mutable mcmf : Mcmf.t option }

let handle () = { mcmf = None }

(* Node layout: 0 = source, 1 = sink, then one block per slice (slice i
   holds [base + 2i] entities), then connectors (one per slice i >= 1). *)
let node_count ~base ~lookahead =
  2 + (lookahead * base) + (lookahead * (lookahead - 1)) + (lookahead - 1)

(* Calls [add src dst cap cost] once per arc of the Section 3.1 graph over
   [candidates] (cached tuples, then arrivals) and returns the results of
   the [base] source arcs, which come first: source arc [e] carries
   candidate [e].  The graph is a DAG: arcs go source → slice 0, slice i
   → slice i+1, old entities of slice i → connector i → new entities of
   slice i, and last slice → sink. *)
let build ~r ~s ~lookahead:l ~candidates add =
  let base = Array.length candidates in
  (* Conditional laws of both streams at offsets 1..l, shared by all cost
     computations. *)
  let laws_r = Array.init l (fun i -> r.Predictor.pmf (i + 1)) in
  let laws_s = Array.init l (fun i -> s.Predictor.pmf (i + 1)) in
  let law side d =
    match side with Tuple.R -> laws_r.(d - 1) | Tuple.S -> laws_s.(d - 1)
  in
  (* Expected one-step benefit of keeping entity [e] through time t0+d:
     entities below [base] are the determined candidates, the rest the
     undetermined arrivals of offset j >= 1, R before S. *)
  let benefit e d =
    if e < base then begin
      let t = candidates.(e) in
      Ssj_prob.Pmf.prob (law (Tuple.partner t.Tuple.side) d) t.Tuple.value
    end
    else begin
      let j = ((e - base) / 2) + 1 in
      let side = if (e - base) mod 2 = 0 then Tuple.R else Tuple.S in
      Ssj_prob.Pmf.dot (law side j) (law (Tuple.partner side) d)
    end
  in
  let entity_count i = base + (2 * i) in
  let offsets = Array.make l 0 in
  let acc = ref 2 in
  for i = 0 to l - 1 do
    offsets.(i) <- !acc;
    acc := !acc + entity_count i
  done;
  let conn_off = !acc in
  let node i e = offsets.(i) + e in
  let connector i = conn_off + i - 1 in
  let source = 0 and sink = 1 in
  let sources = Array.init base (fun e -> add source (node 0 e) 1 0.0) in
  (* Slice 0 contains no connector: arrivals are already determined. *)
  for i = 0 to l - 2 do
    for e = 0 to entity_count i - 1 do
      ignore (add (node i e) (node (i + 1) e) 1 (-.benefit e (i + 1)))
    done
  done;
  for i = 1 to l - 1 do
    let c = connector i in
    for e = 0 to entity_count (i - 1) - 1 do
      ignore (add (node i e) c 1 0.0)
    done;
    let new0 = base + (2 * (i - 1)) in
    ignore (add c (node i new0) 1 0.0);
    ignore (add c (node i (new0 + 1)) 1 0.0)
  done;
  for e = 0 to entity_count (l - 1) - 1 do
    ignore (add (node (l - 1) e) sink 1 (-.benefit e l))
  done;
  sources

let check_lookahead lookahead =
  if lookahead < 1 then invalid_arg "Flow_expect: lookahead < 1"

let graph ~r ~s ~lookahead ~cached ~arrivals =
  check_lookahead lookahead;
  let candidates = Array.of_list (cached @ arrivals) in
  let arcs = ref [] in
  ignore
    (build ~r ~s ~lookahead ~candidates (fun src dst cap cost ->
         arcs := (src, dst, cap, cost) :: !arcs));
  {
    Mcmf_check.nodes = node_count ~base:(Array.length candidates) ~lookahead;
    arcs = Array.of_list (List.rev !arcs);
  }

let decide ?handle:h ~r ~s ~lookahead ~cached ~arrivals ~capacity () =
  check_lookahead lookahead;
  Obs.Counter.incr m_decides;
  let candidate_list = cached @ arrivals in
  let candidates = Array.of_list candidate_list in
  let base = Array.length candidates in
  let target = if capacity <= base then capacity else base in
  if target = 0 then { keep = []; expected_benefit = 0.0 }
  else begin
    let n = node_count ~base ~lookahead in
    let g =
      match h with
      | Some { mcmf = Some g } ->
        Mcmf.reset g ~n;
        g
      | _ ->
        let g = Mcmf.create n in
        (match h with Some h -> h.mcmf <- Some g | None -> ());
        g
    in
    let sources =
      build ~r ~s ~lookahead ~candidates (fun src dst cap cost ->
          Mcmf.add_arc g ~src ~dst ~cap ~cost)
    in
    let result = Mcmf.solve g ~source:0 ~sink:1 ~target in
    let keep =
      List.filteri (fun e _ -> Mcmf.flow_on g sources.(e) > 0) candidate_list
    in
    { keep; expected_benefit = -.result.Mcmf.cost }
  end

let policy ?name ~r ~s ~lookahead () =
  let r_pred = ref r and s_pred = ref s in
  let h = handle () in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "FLOWEXPECT(l=%d)" lookahead
  in
  let select ~now:_ ~cached ~arrivals ~capacity =
    List.iter
      (fun (t : Tuple.t) ->
        match t.Tuple.side with
        | Tuple.R -> r_pred := !r_pred.Predictor.observe t.Tuple.value
        | Tuple.S -> s_pred := !s_pred.Predictor.observe t.Tuple.value)
      arrivals;
    let plan =
      decide ~handle:h ~r:!r_pred ~s:!s_pred ~lookahead ~cached ~arrivals
        ~capacity ()
    in
    plan.keep
  in
  Policy.make_join ~name select
