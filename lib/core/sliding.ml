open Ssj_prob
open Ssj_stream
open Ssj_model

(* Windowed HEEB scores a candidate with L_exp(α) truncated at its
   remaining window lifetime — Hvalue.joining with Lfun.windowed, minus
   the per-candidate work.  L_exp's weights are fixed, so they are
   tabulated once up to hmax = min(horizon, width); a tuple that arrived
   at or before [now] never has more than [width] steps left.  The
   partner laws depend only on the predictors, so they are tabulated once
   per step for both sides; a score is then one Pmf.discounted_at sweep
   over the partner's table, in Hvalue.joining's summation order. *)
type scorer = {
  width : int;
  hmax : int;
  weights : float array;  (* weights.(d) = L_exp(d), d = 1..hmax *)
  r_laws : Pmf.t array;  (* r_laws.(d) = R's law at Δt = d, d = 1..hmax *)
  s_laws : Pmf.t array;
}

let scorer ~alpha ~window =
  let base = Lfun.exp_ ~alpha in
  let width = Window.width window in
  let hmax = max 0 (min base.Lfun.horizon width) in
  {
    width;
    hmax;
    weights = Array.init (hmax + 1) base.Lfun.l;
    r_laws = Array.make (hmax + 1) (Pmf.point 0);
    s_laws = Array.make (hmax + 1) (Pmf.point 0);
  }

let refresh sc ~r ~s =
  for d = 1 to sc.hmax do
    sc.r_laws.(d) <- r.Predictor.pmf d;
    sc.s_laws.(d) <- s.Predictor.pmf d
  done

let score sc ~now ~uid ~value =
  let remaining = (uid asr 1) + sc.width - now in
  if remaining <= 0 then Float.neg_infinity
  else
    Pmf.discounted_at
      (if uid land 1 = 0 then sc.s_laws else sc.r_laws)
      ~weights:sc.weights ~upto:(min sc.hmax remaining) value

let heeb ?name ~r ~s ~alpha ~window () =
  let sc = scorer ~alpha ~window in
  let r_pred = ref r and s_pred = ref s in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "HEEB-W(a=%.3g,w=%d)" alpha (Window.width window)
  in
  let observe (t : Tuple.t) =
    match t.Tuple.side with
    | Tuple.R -> r_pred := !r_pred.Predictor.observe t.Tuple.value
    | Tuple.S -> s_pred := !s_pred.Predictor.observe t.Tuple.value
  in
  Policy.scored ~name ~observe (fun ~now ~n ~uids ~values scores ->
      refresh sc ~r:!r_pred ~s:!s_pred;
      for i = 0 to n - 1 do
        Array.unsafe_set scores i
          (score sc ~now ~uid:(Array.unsafe_get uids i)
             ~value:(Array.unsafe_get values i))
      done)

let stationary_score ~alpha ~p ~remaining_lifetime =
  if remaining_lifetime <= 0 then 0.0
  else begin
    (* p · Σ_{d=1..life} e^{-d/α} = p · r(1 − r^life)/(1 − r), r = e^{-1/α} *)
    let r = exp (-1.0 /. alpha) in
    p *. r *. (1.0 -. (r ** float_of_int remaining_lifetime)) /. (1.0 -. r)
  end

let prob_score ~p ~remaining_lifetime = if remaining_lifetime <= 0 then 0.0 else p

let life_score ~p ~remaining_lifetime =
  p *. float_of_int (max 0 remaining_lifetime)
