open Ssj_stream
open Ssj_model

let match_prob pmf ~value ~band =
  if band < 0 then invalid_arg "Band.match_prob: negative band";
  Ssj_prob.Pmf.interval_prob pmf ~lo:(value - band) ~hi:(value + band)

let ecb ~partner ~value ~band ~horizon =
  if horizon < 1 then invalid_arg "Band.ecb: horizon < 1";
  let b = Array.make horizon 0.0 in
  let acc = ref 0.0 in
  for d = 1 to horizon do
    acc := !acc +. match_prob (partner.Predictor.pmf d) ~value ~band;
    b.(d - 1) <- !acc
  done;
  b

let hvalue ~partner ~l ~value ~band =
  if l.Lfun.horizon >= max_int / 8 then
    invalid_arg "Band.hvalue: L has no finite horizon";
  let acc = ref 0.0 in
  for d = 1 to l.Lfun.horizon do
    let w = l.Lfun.l d in
    if w > 0.0 then
      acc := !acc +. (match_prob (partner.Predictor.pmf d) ~value ~band *. w)
  done;
  !acc

let heeb ?name ~r ~s ~l ~band () =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "HEEB-band(%d)" band
  in
  let r_pred = ref r and s_pred = ref s in
  let observe (t : Tuple.t) =
    match t.Tuple.side with
    | Tuple.R -> r_pred := !r_pred.Predictor.observe t.Tuple.value
    | Tuple.S -> s_pred := !s_pred.Predictor.observe t.Tuple.value
  in
  Policy.scored ~name ~observe (fun ~now:_ ~n ~uids ~values scores ->
      for i = 0 to n - 1 do
        let partner = if uids.(i) land 1 = 0 then !s_pred else !r_pred in
        scores.(i) <- hvalue ~partner ~l ~value:values.(i) ~band
      done)

let prob_model ~r_dist ~s_dist ~band () =
  Policy.scored
    ~name:(Printf.sprintf "PROB-band(%d)" band)
    (fun ~now:_ ~n ~uids ~values scores ->
      for i = 0 to n - 1 do
        let partner = if uids.(i) land 1 = 0 then s_dist else r_dist in
        scores.(i) <- match_prob partner ~value:values.(i) ~band
      done)
