open Ssj_stream
open Ssj_model

type incr_config = { alpha : float; refresh_every : int }
type mode = [ `Direct | `Incremental of incr_config | `Memo_trend of int ]

let incr ~alpha = `Incremental { alpha; refresh_every = 64 }

let src = Logs.Src.create "ssj.heeb" ~doc:"HEEB policy internals"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Joining                                                             *)
(* ------------------------------------------------------------------ *)

type joining_state = {
  mutable r_pred : Predictor.t;
  mutable s_pred : Predictor.t;
  (* uid -> (H, time of last direct computation) *)
  hvals : (int, float * int) Hashtbl.t;
  (* (side, offset) encoded as an int -> H, for `Memo_trend` *)
  memo : Ssj_prob.Ftab.t;
}

(* H of the candidate with this uid side bit (R = 0) and value: an R
   tuple joins future S arrivals, and vice versa. *)
let direct_h_bit st ~l ~bit ~value =
  Hvalue.joining
    ~partner:(if bit = 0 then st.s_pred else st.r_pred)
    ~l ~value

let direct_h st ~l (t : Tuple.t) =
  direct_h_bit st ~l ~bit:(t.uid land 1) ~value:t.value

let fresh_state ~r ~s =
  {
    r_pred = r;
    s_pred = s;
    hvals = Hashtbl.create 128;
    memo = Ssj_prob.Ftab.create ~size:128 ();
  }

(* Drop incremental state of evicted tuples: build the kept-uid set once
   and sweep, instead of the former [Hashtbl.copy] + [List.mem] pass
   that cost O(|hvals| * |kept|) per step. *)
let prune_hvals hvals kept =
  let keep = Hashtbl.create 64 in
  List.iter (fun (t : Tuple.t) -> Hashtbl.replace keep t.uid ()) kept;
  let stale =
    Hashtbl.fold
      (fun uid _ acc -> if Hashtbl.mem keep uid then acc else uid :: acc)
      hvals []
  in
  List.iter (Hashtbl.remove hvals) stale

let observe_into st (t : Tuple.t) =
  match t.side with
  | Tuple.R -> st.r_pred <- st.r_pred.Predictor.observe t.value
  | Tuple.S -> st.s_pred <- st.s_pred.Predictor.observe t.value

(* Corollaries 3–4: time-incremental H for independent processes.  Needs
   the kept list to prune the per-uid state, so it is a list-only policy;
   [prior_r]/[prior_s] are the one-step laws Pr{X_now = v} *before*
   observing the step's arrivals. *)
let joining_incremental ~name ~l ~alpha ~refresh_every st =
  let sel = Policy.selector () in
  let select ~now ~cached ~arrivals ~capacity =
    let prior_r = st.r_pred.Predictor.pmf 1
    and prior_s = st.s_pred.Predictor.pmf 1 in
    List.iter (observe_into st) arrivals;
    let score (t : Tuple.t) =
      let recompute () =
        let h = direct_h st ~l t in
        Hashtbl.replace st.hvals t.uid (h, now);
        h
      in
      if t.arrival = now then recompute ()
      else begin
        match Hashtbl.find_opt st.hvals t.uid with
        | None -> recompute ()
        | Some (h_prev, at) ->
          if now - at >= refresh_every then recompute ()
          else begin
            let prior =
              match t.side with
              | Tuple.R -> prior_s (* an R tuple joins S arrivals *)
              | Tuple.S -> prior_r
            in
            let p_now = Ssj_prob.Pmf.prob prior t.value in
            let h = Hvalue.step_joining_exp ~alpha ~h_prev ~p_now in
            Hashtbl.replace st.hvals t.uid (h, at);
            h
          end
      end
    in
    let kept = Policy.select_top sel ~capacity ~score ~cached ~arrivals in
    prune_hvals st.hvals kept;
    kept
  in
  Policy.make_join ~name select

let joining ?name ~r ~s ~l ?(mode = `Direct) () =
  let mode =
    match mode with
    | `Incremental _ when not (r.Predictor.independent && s.Predictor.independent)
      ->
      Log.warn (fun m ->
          m "incremental HEEB needs independent processes; using direct mode");
      `Direct
    | m -> m
  in
  let st = fresh_state ~r ~s in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "HEEB(%s)" l.Lfun.name
  in
  match mode with
  | `Incremental { alpha; refresh_every } ->
    joining_incremental ~name ~l ~alpha ~refresh_every st
  | `Direct ->
    Policy.scored ~name ~observe:(observe_into st)
      (fun ~now:_ ~n ~uids ~values scores ->
        for i = 0 to n - 1 do
          Array.unsafe_set scores i
            (direct_h_bit st ~l
               ~bit:(Array.unsafe_get uids i land 1)
               ~value:(Array.unsafe_get values i))
        done)
  | `Memo_trend speed ->
    (* H depends only on the trend-relative offset, so it is memoised by
       (offset, side bit); the memo hit — one table probe per candidate —
       is the per-step steady state.  H values are finite sums of
       probability-weighted L values and never NaN, so NaN doubles as
       the absence marker. *)
    Policy.scored ~name ~observe:(observe_into st)
      (fun ~now ~n ~uids ~values scores ->
        let shift = speed * now in
        for i = 0 to n - 1 do
          let bit = Array.unsafe_get uids i land 1 in
          let value = Array.unsafe_get values i in
          let key = ((value - shift) lsl 1) lor bit in
          let h = Ssj_prob.Ftab.find_default st.memo key Float.nan in
          Array.unsafe_set scores i
            (if Float.is_nan h then begin
               let h = direct_h_bit st ~l ~bit ~value in
               Ssj_prob.Ftab.set st.memo key h;
               h
             end
             else h)
        done)

let joining_curves ?name ~h_r_tuples ~h_s_tuples () =
  let r_last = ref None and s_last = ref None in
  let name = Option.value ~default:"HEEB(h1)" name in
  let observe (t : Tuple.t) =
    match t.side with
    | Tuple.R -> r_last := Some t.value
    | Tuple.S -> s_last := Some t.value
  in
  Policy.scored ~name ~observe (fun ~now:_ ~n ~uids ~values scores ->
      for i = 0 to n - 1 do
        (* An R tuple joins future S arrivals: offset against S's last
           position, and vice versa. *)
        let last, curve =
          if uids.(i) land 1 = 0 then (!s_last, h_r_tuples)
          else (!r_last, h_s_tuples)
        in
        scores.(i) <-
          (match last with
          | None -> 0.0
          | Some x -> Interp.Curve.eval curve (float_of_int (values.(i) - x)))
      done)

let joining_adaptive ?name ?(initial_lifetime = 5.0) ?(smoothing = 0.05) ~r ~s
    () =
  let name = Option.value ~default:"HEEB-adaptive" name in
  if not (initial_lifetime > 1.0) then
    invalid_arg "Heeb.joining_adaptive: initial_lifetime <= 1";
  if smoothing <= 0.0 || smoothing > 1.0 then
    invalid_arg "Heeb.joining_adaptive: smoothing outside (0, 1]";
  let st = fresh_state ~r ~s in
  let sel = Policy.selector () in
  let lifetime = ref initial_lifetime in
  let admitted_at : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let select ~now ~cached ~arrivals ~capacity =
    List.iter (observe_into st) arrivals;
    let alpha = Lfun.alpha_for_lifetime (Float.max 1.01 !lifetime) in
    let l = Lfun.exp_ ~alpha in
    let kept =
      Policy.select_top sel ~capacity ~score:(direct_h st ~l) ~cached ~arrivals
    in
    (* Update the lifetime estimate from this step's evictions, and track
       new admissions.  The kept-uid set is built once per step; the
       former [List.exists] per cached tuple cost O(k^2). *)
    let kept_set = Hashtbl.create 64 in
    List.iter
      (fun (t : Tuple.t) -> Hashtbl.replace kept_set t.Tuple.uid ())
      kept;
    let kept_uid uid = Hashtbl.mem kept_set uid in
    List.iter
      (fun (t : Tuple.t) ->
        if not (kept_uid t.Tuple.uid) then begin
          (match Hashtbl.find_opt admitted_at t.Tuple.uid with
          | Some at ->
            let residence = float_of_int (max 1 (now - at)) in
            lifetime :=
              ((1.0 -. smoothing) *. !lifetime) +. (smoothing *. residence)
          | None -> ());
          Hashtbl.remove admitted_at t.Tuple.uid
        end)
      cached;
    List.iter
      (fun (t : Tuple.t) ->
        if kept_uid t.Tuple.uid then Hashtbl.replace admitted_at t.Tuple.uid now)
      arrivals;
    kept
  in
  Policy.make_join ~name select

(* ------------------------------------------------------------------ *)
(* Caching                                                             *)
(* ------------------------------------------------------------------ *)

let caching_direct_h pred ~l value =
  match pred.Predictor.kernel with
  | Some kernel when not pred.Predictor.independent ->
    let start =
      match pred.Predictor.last with
      | Some v -> max kernel.Markov.lo (min kernel.Markov.hi v)
      | None -> (kernel.Markov.lo + kernel.Markov.hi) / 2
    in
    Hvalue.caching_markov ~kernel ~start ~l ~value
  | Some _ | None -> Hvalue.caching_independent ~reference:pred ~l ~value

(* Same sweep as [prune_hvals], keyed by cached value instead of uid. *)
let prune_cached_hvals hvals kept =
  let keep = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace keep v ()) kept;
  let stale =
    Hashtbl.fold
      (fun v _ acc -> if Hashtbl.mem keep v then acc else v :: acc)
      hvals []
  in
  List.iter (Hashtbl.remove hvals) stale

let caching ?name ~reference ~l ?(mode = `Direct) () =
  let mode =
    match mode with
    | `Incremental _ when not reference.Predictor.independent ->
      Log.warn (fun m ->
          m "incremental caching HEEB needs an independent reference; using direct");
      `Direct
    | `Memo_trend _ -> `Direct
    | m -> m
  in
  let pred = ref reference in
  let hvals : (int, float * int) Hashtbl.t = Hashtbl.create 128 in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "HEEB(%s)" l.Lfun.name
  in
  let access ~now ~cached ~value ~hit ~capacity =
    let prior = !pred.Predictor.pmf 1 in
    pred := !pred.Predictor.observe value;
    let score v =
      let recompute () =
        let h = caching_direct_h !pred ~l v in
        Hashtbl.replace hvals v (h, now);
        h
      in
      match mode with
      | `Direct | `Memo_trend _ -> caching_direct_h !pred ~l v
      | `Incremental { alpha; refresh_every } ->
        if v = value then recompute () (* fetched or just hit: clock restarts *)
        else begin
          match Hashtbl.find_opt hvals v with
          | None -> recompute ()
          | Some (h_prev, at) ->
            if now - at >= refresh_every then recompute ()
            else begin
              let p_now = Ssj_prob.Pmf.prob prior v in
              let h = Hvalue.step_caching_exp ~alpha ~h_prev ~p_now in
              Hashtbl.replace hvals v (h, at);
              h
            end
        end
    in
    let candidates = if hit then cached else value :: cached in
    let scored = List.map (fun v -> (score v, v)) candidates in
    let ordered =
      List.sort (fun (sa, va) (sb, vb) ->
          match Float.compare sb sa with 0 -> Int.compare vb va | c -> c)
        scored
    in
    let kept = List.filteri (fun i _ -> i < capacity) ordered |> List.map snd in
    (match mode with
    | `Incremental _ -> prune_cached_hvals hvals kept
    | `Direct | `Memo_trend _ -> ());
    kept
  in
  { Policy.cname = name; access }

let caching_fn ?name ~h () =
  let name = Option.value ~default:"HEEB(h)" name in
  let access ~now ~cached ~value ~hit ~capacity =
    (* The history x̄_{t0} includes the reference just observed, so the
       conditioning value for h2(v_x, x_{t0}) is today's [value]. *)
    let score v = h ~now ~last:value ~value:v in
    let candidates = if hit then cached else value :: cached in
    let scored = List.map (fun v -> (score v, v)) candidates in
    let ordered =
      List.sort (fun (sa, va) (sb, vb) ->
          match Float.compare sb sa with 0 -> Int.compare vb va | c -> c)
        scored
    in
    List.filteri (fun i _ -> i < capacity) ordered |> List.map snd
  in
  { Policy.cname = name; access }
