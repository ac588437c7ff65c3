(* Repository benchmark harness.

   Two workloads, joining and caching, each a closed-loop batch: the
   next pass starts only after the previous one returned.  A pass hands the generated inputs
   to the library and times it until the complete result is back.

     bench.exe run  --workload W --seed N --seconds S --trace 0|1 --spans F
     bench.exe selftest

   [run] sets the inputs up and makes a first jobs=1 pass in the fresh
   process (the peak major heap), then spends what is left of
   [--seconds] from its start on jobs=1 / jobs=nproc / obs-on passes, in
   equal shares of pass time, each after a set-up sample.  With
   [--trace 1], time is kept back in the same bound for one traced pass,
   whose spans give the per-layer numbers.  Every pass's per-run results
   are checked: goldens at seed 42, reference or bound checks at every
   seed, and bit-identity across passes.  The last stdout line is one
   JSON object. *)

open Ssj_prob
open Ssj_model
open Ssj_stream
open Ssj_core
open Ssj_engine
open Ssj_workload
module Obs = Ssj_obs.Obs
module Golden = Ssj_conform.Golden
module Ref_sim = Ssj_conform.Ref_sim

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9
let canonical_seed = 42
let nproc = Domain.recommended_domain_count ()
let ratio a b = if b = 0.0 then 0.0 else a /. b
let runs_of n = List.init n Fun.id

(* Percentile by linear interpolation between order statistics; q = 0.5
   is the median. *)
let percentile q = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    let j = min (i + 1) (Array.length a - 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

(* --- JSON ------------------------------------------------------------ *)

type json =
  | I of int
  | F of float
  | S of string
  | B of bool
  | L of json list
  | O of (string * json) list

let rec add_json b = function
  | I i -> Buffer.add_string b (string_of_int i)
  | F f ->
    (* Every float this harness prints is finite by construction; a
       non-finite one is a harness bug and must not pass as a number. *)
    if not (Float.is_finite f) then invalid_arg "non-finite metric";
    Buffer.add_string b (Printf.sprintf "%.17g" f)
  | S s ->
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | B v -> Buffer.add_string b (if v then "true" else "false")
  | L xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        add_json b x)
      xs;
    Buffer.add_char b ']'
  | O kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_json b (S k);
        Buffer.add_char b ':';
        add_json b v)
      kvs;
    Buffer.add_char b '}'

let json_string j =
  let b = Buffer.create 256 in
  add_json b j;
  Buffer.contents b

(* --- per-run duration histogram ---------------------------------------

   Log-linear buckets: values below 2^sub_bits are exact, above that
   each power of two splits into 2^sub_bits buckets (≤ 1/32 relative
   width).  Percentiles interpolate inside the bucket by rank. *)

module Hist = struct
  let sub_bits = 5
  let sub = 1 lsl sub_bits
  let nbuckets = 64 * sub

  type t = { counts : int array; mutable n : int; mutable sum : int }

  let create () = { counts = Array.make nbuckets 0; n = 0; sum = 0 }

  let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1)

  let index v =
    if v < sub then max v 0
    else
      let shift = msb v 0 - sub_bits in
      ((shift + 1) * sub) + ((v lsr shift) - sub)

  let lower i =
    if i < sub then i else (sub + (i mod sub)) lsl ((i / sub) - 1)

  let width i = if i < sub then 1 else 1 lsl ((i / sub) - 1)

  let add h v =
    let i = index v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum + v

  let merge_into dst src =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.n <- dst.n + src.n;
    dst.sum <- dst.sum + src.sum

  let mean h = ratio (float_of_int h.sum) (float_of_int h.n)

  let quantile h q =
    if h.n = 0 then 0.0
    else begin
      let target = q *. float_of_int h.n in
      let rec go i cum =
        let c = h.counts.(i) in
        if c > 0 && (float_of_int (cum + c) >= target || i = nbuckets - 1)
        then
          float_of_int (lower i)
          +. float_of_int (width i)
             *. Float.min 1.0 ((target -. float_of_int cum) /. float_of_int c)
        else if i = nbuckets - 1 then float_of_int (lower i)
        else go (i + 1) (cum + c)
      in
      go 0 0
    end

  let to_json h =
    let buckets = ref [] in
    for i = nbuckets - 1 downto 0 do
      if h.counts.(i) > 0 then
        buckets := L [ I (lower i); I (width i); I h.counts.(i) ] :: !buckets
    done;
    O [ ("calls", I h.n); ("total_ns", I h.sum); ("buckets", L !buckets) ]
end

(* --- spans ------------------------------------------------------------

   Kept in memory, written as JSONL when the run ends.  A span is one
   timed call into a layer; an aggregate is the per-run histogram of
   the policy calls made inside one engine span (one span per step
   would cost more than the steps).  A span's self time is its
   duration minus its child spans and aggregates. *)

module Spans = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (** -1 for the root *)
    run : int;  (** run index inside its runner call, -1 when none *)
    start_ns : int;
    mutable end_ns : int;
    mutable attrs : (string * json) list;
  }

  type aggregate = { a_parent : int; a_run : int; label : string; hist : Hist.t }

  type t = {
    mutable spans : span list;
    mutable aggs : aggregate list;
    mutable next : int;
  }

  let create () = { spans = []; aggs = []; next = 0 }

  let start t ?(run = -1) ~parent name =
    let sp =
      { id = t.next; name; parent; run; start_ns = now_ns (); end_ns = 0;
        attrs = [] }
    in
    t.next <- t.next + 1;
    t.spans <- sp :: t.spans;
    sp

  let finish sp = sp.end_ns <- now_ns ()

  let with_ t ?run ~parent name f =
    let sp = start t ?run ~parent name in
    Fun.protect ~finally:(fun () -> finish sp) (fun () -> f sp)

  let aggregate t ~parent ~label hist =
    t.aggs <-
      { a_parent = parent.id; a_run = parent.run; label; hist } :: t.aggs

  let duration sp = sp.end_ns - sp.start_ns
  let spans t = List.rev t.spans
  let named t name = List.filter (fun sp -> sp.name = name) (spans t)

  (* Time covered by the aggregates directly under [sp]. *)
  let aggregated_ns t sp =
    List.fold_left
      (fun acc a -> if a.a_parent = sp.id then acc + a.hist.Hist.sum else acc)
      0 t.aggs

  let write t ~context path =
    let oc = open_out path in
    let line j =
      output_string oc (json_string j);
      output_char oc '\n'
    in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        line (O (("kind", S "context") :: context));
        List.iter
          (fun sp ->
            line
              (O
                 ([
                    ("kind", S "span");
                    ("id", I sp.id);
                    ("name", S sp.name);
                    ("parent", I sp.parent);
                    ("run", I sp.run);
                    ("start_ns", I sp.start_ns);
                    ("end_ns", I sp.end_ns);
                  ]
                 @ sp.attrs)))
          (spans t);
        List.iter
          (fun a ->
            line
              (O
                 [
                   ("kind", S "aggregate");
                   ("name", S "policy.step");
                   ("parent", I a.a_parent);
                   ("run", I a.a_run);
                   ("policy", S a.label);
                   ("hist", Hist.to_json a.hist);
                 ]))
          (List.rev t.aggs))
end

(* --- policy wrappers: time every call the engine makes ---------------- *)

let wrap_join hist (p : Policy.join) : Policy.join =
  let select ~now ~cached ~arrivals ~capacity =
    let t0 = now_ns () in
    let kept = p.Policy.select ~now ~cached ~arrivals ~capacity in
    Hist.add hist (now_ns () - t0);
    kept
  in
  let fast =
    Option.map
      (fun (fast : Policy.fast_select) : Policy.fast_select ->
        fun ~src ~dst ~now ~r ~s ~capacity ->
         let t0 = now_ns () in
         fast ~src ~dst ~now ~r ~s ~capacity;
         Hist.add hist (now_ns () - t0))
      p.Policy.fast
  in
  { p with Policy.select; fast }

let wrap_cache hist (p : Policy.cache) : Policy.cache =
  let access ~now ~cached ~value ~hit ~capacity =
    let t0 = now_ns () in
    let kept = p.Policy.access ~now ~cached ~value ~hit ~capacity in
    Hist.add hist (now_ns () - t0);
    kept
  in
  { p with Policy.access }

(* --- results and their checks ------------------------------------------ *)

(* One pass's output: per label, the per-run values the runner summarises. *)
type table = (string * float array) list

(* [run = -1] fails every run of [label]. *)
type failure = { label : string; run : int; reason : string }

let table_of_summaries =
  List.map (fun s -> (s.Runner.label, s.Runner.per_run))

let summaries_of_table =
  List.map (fun (label, per_run) -> Runner.summarize ~label per_run)

(* Bit-for-bit comparison against a reference table with the same labels. *)
let mismatches ~what ~(reference : table) (table : table) =
  let bits = Int64.bits_of_float in
  let against =
    List.concat_map
      (fun (label, expected) ->
        match List.assoc_opt label table with
        | None -> [ { label; run = -1; reason = what ^ ": label missing" } ]
        | Some got when Array.length got <> Array.length expected ->
          [ { label; run = -1; reason = what ^ ": run count differs" } ]
        | Some got ->
          List.filter_map
            (fun i ->
              if Int64.equal (bits got.(i)) (bits expected.(i)) then None
              else
                Some
                  {
                    label;
                    run = i;
                    reason =
                      Printf.sprintf "%s: %h, expected %h" what got.(i)
                        expected.(i);
                  })
            (runs_of (Array.length expected)))
      reference
  in
  let extra =
    List.filter_map
      (fun (label, _) ->
        if List.mem_assoc label reference then None
        else Some { label; run = -1; reason = what ^ ": unexpected label" })
      table
  in
  against @ extra

(* [%h] digests keyed like {!Golden}'s tables, each with the label of the
   summary it digests.  A digest that differs from, or is missing in, the
   golden fails every run of its summary. *)
let golden_failures ~(expected : Golden.digest list)
    (digests : (string * Golden.digest) list) =
  let wrong =
    List.filter_map
      (fun (label, (d : Golden.digest)) ->
        match
          List.find_opt (fun (e : Golden.digest) -> e.key = d.key) expected
        with
        | Some e when e.hex = d.hex -> None
        | Some e ->
          Some
            {
              label;
              run = -1;
              reason =
                Printf.sprintf "golden %s: %s, expected %s" d.key d.hex e.hex;
            }
        | None ->
          Some { label; run = -1; reason = "no golden digest for " ^ d.key })
      digests
  in
  let missing =
    List.filter_map
      (fun (e : Golden.digest) ->
        if List.exists (fun (_, (d : Golden.digest)) -> d.key = e.key) digests
        then None
        else
          Some
            { label = e.key; run = -1; reason = "golden digest not produced" })
      expected
  in
  wrong @ missing

let digest label key v = (label, { Golden.key; hex = Printf.sprintf "%h" v })

let fig8_digests summaries =
  List.concat_map
    (fun s ->
      let key stat =
        Printf.sprintf "fig8/cap%d/%s/%s" Golden.sweep_capacity s.Runner.label
          stat
      in
      [
        digest s.Runner.label (key "mean") s.Runner.mean;
        digest s.Runner.label (key "stddev") s.Runner.stddev;
      ])
    summaries

let fig13_digests summaries =
  List.map
    (fun s ->
      digest s.Runner.label
        (Printf.sprintf "fig13/%s/mean" s.Runner.label)
        s.Runner.mean)
    summaries

(* Number of distinct runs the failures cover. *)
let failed_runs (table : table) failures =
  let seen = Hashtbl.create 16 in
  let mark label run = Hashtbl.replace seen (label, run) () in
  List.iter
    (fun f ->
      if f.run >= 0 then mark f.label f.run
      else
        match List.assoc_opt f.label table with
        | Some per_run -> Array.iteri (fun i _ -> mark f.label i) per_run
        | None -> mark f.label (-1))
    failures;
  Hashtbl.length seen

(* --- workloads ---------------------------------------------------------- *)

(* Set-up phases run plainly, or as spans in the traced pass. *)
type phase = { phase : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { phase = (fun _ f -> f ()) }

let span_phases tr (parent : Spans.span) =
  {
    phase =
      (fun name f -> Spans.with_ tr ~parent:parent.Spans.id name (fun _ -> f ()));
  }

type prepared = {
  runs : int;  (** per-run results one pass produces *)
  program : jobs:int -> table;  (** the measured work *)
  traced : Spans.t -> parent:Spans.span -> table;
      (** the same work at jobs=1, timed from outside at each layer call *)
  check : table -> failure list;  (** golden, reference and bound checks *)
}

type workload = { name : string; setup : seed:int -> phase -> prepared }

let materialise traces =
  Array.iter
    (fun t -> if Trace.length t > 0 then ignore (Trace.arrivals t 0))
    traces

let no_retry = { Runner.default_supervision with Runner.retries = 0 }

(* The traced pass drives the engine through {!Runner.run_supervised}, the
   runner entry that takes a per-run function, so each engine call is a
   span of its own.  A run that raised comes back as NaN in its slot and
   fails every later check. *)
let supervised tr ~(parent : Spans.span) ~label items f =
  Spans.with_ tr ~parent:parent.Spans.id "runner.run_supervised" (fun sp ->
      sp.Spans.attrs <- [ ("policy", S label) ];
      let sup =
        Runner.run_supervised ~label ~supervision:no_retry ~jobs:1 (f sp) items
      in
      let failed =
        List.map (fun (fl : Runner.failure) -> fl.Runner.run) sup.Runner.failures
      in
      let per_run = Array.make (Array.length items) Float.nan in
      List.iteri
        (fun k i -> per_run.(i) <- sup.Runner.summary.Runner.per_run.(k))
        (List.filter
           (fun i -> not (List.mem i failed))
           (runs_of (Array.length items)));
      (label, per_run))

(* One engine call as a span, with its policy-call histogram, its step
   count and the minor-heap words it allocated. *)
let engine_span tr ~(parent : Spans.span) ~run ~label ~steps name make wrap
    simulate =
  let policy =
    Spans.with_ tr ~parent:parent.Spans.id ~run "policy.create" (fun _ ->
        make ())
  in
  let hist = Hist.create () in
  let policy = wrap hist policy in
  Spans.with_ tr ~parent:parent.Spans.id ~run name (fun sp ->
      let w0 = Gc.minor_words () in
      let v = simulate policy in
      let words = Gc.minor_words () -. w0 in
      Spans.aggregate tr ~parent:sp ~label hist;
      sp.Spans.attrs <-
        [ ("policy", S label); ("steps", I steps); ("minor_words", F words) ];
      v)

let traced_joining tr ~parent ~(setup : Runner.joining_setup) ~traces
    policies =
  let { Runner.capacity; warmup; window } = setup in
  List.map
    (fun (label, make) ->
      supervised tr ~parent ~label traces (fun rsp run trace ->
          engine_span tr ~parent:rsp ~run ~label ~steps:(Trace.length trace)
            "join_sim.run" make wrap_join (fun policy ->
              let r =
                Join_sim.run ~trace ~policy ~capacity ~warmup ?window ()
              in
              float_of_int r.Join_sim.counted_results)))
    policies

let traced_caching tr ~parent ~capacity ~reference ~prefix policies =
  List.map
    (fun (label, make) ->
      supervised tr ~parent ~label:(prefix ^ label) [| reference |]
        (fun rsp run reference ->
          engine_span tr ~parent:rsp ~run ~label
            ~steps:(Array.length reference) "cache_sim.run" make wrap_cache
            (fun policy ->
              let r = Cache_sim.run ~reference ~policy ~capacity ~warmup:0 () in
              float_of_int r.Cache_sim.counted_misses)))
    policies

let trend_traces cfg ~runs ~length ~seed (p : phase) =
  let traces =
    p.phase "stream.generate" (fun () ->
        Array.init runs (fun i ->
            let r, s = Config.predictors cfg in
            Trace.generate ~r ~s ~rng:(Rng.create (seed + (1009 * i))) ~length))
  in
  p.phase "stream.materialise" (fun () -> materialise traces);
  traces

let joining_setup ?window capacity =
  { Runner.capacity; warmup = Runner.default_warmup ~capacity; window }

(* tower-fig8: the tracked sweep (TOWER, capacity 25, 50 x 5000,
   RAND/PROB/LIFE/HEEB on the buffer fast path).  Policy scoring and
   selection dominate; flow, precompute and the list path stay idle. *)
let tower_fig8 =
  let setup ~seed (p : phase) =
    let tower = Config.tower () in
    let traces =
      trend_traces tower ~runs:Golden.canonical_runs
        ~length:Golden.canonical_length ~seed p
    in
    let policies =
      p.phase "lineup" (fun () -> Factory.trend_policies tower ~seed ())
    in
    let setup = joining_setup Golden.sweep_capacity in
    {
      runs = Array.length traces * List.length policies;
      program =
        (fun ~jobs ->
          table_of_summaries
            (Runner.compare_joining ~setup ~traces ~policies ~include_opt:false
               ~jobs ()));
      traced =
        (fun tr ~parent -> traced_joining tr ~parent ~setup ~traces policies);
      check =
        (fun table ->
          if seed <> canonical_seed then []
          else
            golden_failures ~expected:Golden.expected_fig8
              (fig8_digests (summaries_of_table table)));
    }
  in
  { name = "tower-fig8"; setup }

(* zipf-window: Experiments.window_extension — stationary Zipf(40)
   streams, window 25, capacity 10.  RAND/PROB/LIFE take the fast path
   with window expiry, HEEB-W the list path.  Checked against the
   list-scan reference simulator at every seed. *)
let zipf_window =
  let setup ~seed (p : phase) =
    let opts = Experiments.default in
    let width = 25 in
    let window = Window.create ~width in
    let zipf =
      Pmf.of_assoc
        (List.init 40 (fun i -> (i + 1, 1.0 /. float_of_int (i + 1))))
    in
    let make_preds () =
      (Stationary.create ~time:(-1) zipf, Stationary.create ~time:(-1) zipf)
    in
    let traces =
      p.phase "stream.generate" (fun () ->
          Array.init opts.Experiments.runs (fun i ->
              let r, s = make_preds () in
              Trace.generate ~r ~s
                ~rng:(Rng.create (seed + (811 * i)))
                ~length:opts.Experiments.length))
    in
    p.phase "stream.materialise" (fun () -> materialise traces);
    let capacity = opts.Experiments.capacity in
    let policies =
      p.phase "lineup" (fun () ->
          let lifetime = Baselines.Of_window { width } in
          let residence =
            Float.min (float_of_int width) (float_of_int capacity /. 2.0)
          in
          [
            ("RAND", fun () -> Baselines.rand ~rng:(Rng.create seed) ~lifetime ());
            ("PROB", fun () -> Baselines.prob ~lifetime ());
            ("LIFE", fun () -> Baselines.life ~lifetime ());
            ( "HEEB-W",
              fun () ->
                let r, s = make_preds () in
                Sliding.heeb ~r ~s
                  ~alpha:(Lfun.alpha_for_lifetime (Float.max 1.5 residence))
                  ~window () );
          ])
    in
    let setup = joining_setup ~window capacity in
    (* Computed once per process, on the first check; the replays are
       independent, so they use every domain. *)
    let reference =
      lazy
        (List.map
           (fun (label, make) ->
             ( label,
               Parallel.map ~jobs:nproc
                 (fun trace ->
                   let r =
                     Ref_sim.run ~trace ~policy:(make ()) ~capacity
                       ~warmup:setup.Runner.warmup ~window ()
                   in
                   float_of_int r.Ref_sim.counted_results)
                 traces ))
           policies)
    in
    {
      runs = Array.length traces * List.length policies;
      program =
        (fun ~jobs ->
          table_of_summaries
            (Runner.compare_joining ~setup ~traces ~policies ~include_opt:false
               ~jobs ()));
      traced =
        (fun tr ~parent -> traced_joining tr ~parent ~setup ~traces policies);
      check =
        (fun table ->
          mismatches ~what:"Ref_sim" ~reference:(Lazy.force reference) table);
    }
  in
  { name = "zipf-window"; setup }

(* real-fig13: Experiments.fig13_data at default options — the caching
   side.  The h2 surface build is part of the program: every fig13 run
   pays it.  Join_sim is never called. *)
let real_fig13 =
  let setup ~seed (p : phase) =
    let sizes = Experiments.default.Experiments.real_sizes in
    let reference =
      p.phase "stream.generate" (fun () ->
          Real.to_bins (Real.synthetic_ar1 ~rng:(Rng.create seed) ~days:3650 ()))
    in
    let fitted = p.phase "model.fit" (fun () -> Fit.ar1_of_ints reference) in
    let ls, (lo, hi), classic =
      p.phase "lineup" (fun () ->
          ( Array.of_list
              (List.map
                 (fun c -> Lfun.exp_ ~alpha:(float_of_int (max 2 c)))
                 sizes),
            Factory.real_surface_bounds fitted,
            [
              ("RAND", fun () -> Classic.rand_cache ~rng:(Rng.create seed));
              ("LRU", fun () -> Classic.lru ());
              ("PROB(LFU)", fun () -> Classic.lfu ());
            ] ))
    in
    let surfaces ~jobs =
      Precompute.ar1_caching_surfaces fitted ~ls ~vx_lo:lo ~vx_hi:hi ~x0_lo:lo
        ~x0_hi:hi ~nv:5 ~nx:5 ~jobs ()
    in
    let lineup surface =
      classic @ [ ("HEEB", Factory.real_heeb_of_surface surface) ]
    in
    let prefix capacity = Printf.sprintf "m%d/" capacity in
    let program ~jobs =
      let surfaces = surfaces ~jobs in
      List.concat
        (List.mapi
           (fun i capacity ->
             List.map
               (fun s -> (prefix capacity ^ s.Runner.label, s.Runner.per_run))
               (Runner.compare_caching ~capacity ~warmup:0
                  ~references:[| reference |] ~policies:(lineup surfaces.(i))
                  ~jobs ()))
           sizes)
    in
    let traced tr ~parent =
      let surfaces =
        Spans.with_ tr ~parent:parent.Spans.id
          "precompute.ar1_caching_surfaces" (fun _ -> surfaces ~jobs:1)
      in
      List.concat
        (List.mapi
           (fun i capacity ->
             traced_caching tr ~parent ~capacity ~reference
               ~prefix:(prefix capacity)
               (("LFD", fun () -> Classic.lfd ~reference) :: lineup surfaces.(i)))
           sizes)
    in
    (* LFD is offline-optimal, so no online policy misses less. *)
    let bound table =
      List.concat_map
        (fun capacity ->
          let lfd_label = prefix capacity ^ "LFD" in
          match List.assoc_opt lfd_label table with
          | None -> [ { label = lfd_label; run = -1; reason = "LFD missing" } ]
          | Some lfd ->
            List.concat_map
              (fun (label, per_run) ->
                if not (String.starts_with ~prefix:(prefix capacity) label)
                then []
                else
                  List.filter_map
                    (fun i ->
                      if i < Array.length lfd && lfd.(i) <= per_run.(i) then None
                      else Some { label; run = i; reason = "misses below LFD" })
                    (runs_of (Array.length per_run)))
              table)
        sizes
    in
    {
      runs = List.length sizes * (List.length classic + 2);
      program;
      traced;
      check =
        (fun table ->
          bound table
          @
          if seed <> canonical_seed then []
          else
            golden_failures ~expected:Golden.expected_fig13
              (fig13_digests (summaries_of_table table)));
    }
  in
  { name = "real-fig13"; setup }

(* floor-flowexpect: the fig19 configuration — FLOOR, memory 20, three
   500-step traces, FlowExpect at look-ahead 10 (the policy keeps one
   warm handle) plus the OPT-offline solve on the same traces. *)
let floor_flowexpect =
  let lookahead = 10 in
  let setup ~seed (p : phase) =
    let opts = Experiments.default in
    let floor = Config.floor () in
    let traces =
      trend_traces floor ~runs:opts.Experiments.fe_runs
        ~length:opts.Experiments.fe_length ~seed p
    in
    let policies =
      p.phase "lineup" (fun () ->
          [ ("FLOWEXPECT", Factory.trend_flow_expect floor ~lookahead) ])
    in
    let setup = joining_setup 20 in
    let traced tr ~parent =
      let opt =
        Array.mapi
          (fun run trace ->
            Spans.with_ tr ~parent:parent.Spans.id ~run
              "opt_offline.max_results_from" (fun _ ->
                float_of_int
                  (Opt_offline.max_results_from ~trace
                     ~capacity:setup.Runner.capacity ~start:setup.Runner.warmup
                     ())))
          traces
      in
      ("OPT-OFFLINE", opt) :: traced_joining tr ~parent ~setup ~traces policies
    in
    let check table =
      match
        (List.assoc_opt "OPT-OFFLINE" table, List.assoc_opt "FLOWEXPECT" table)
      with
      | Some opt, Some fe when Array.length opt = Array.length fe ->
        List.filter_map
          (fun i ->
            if fe.(i) <= opt.(i) then None
            else
              Some
                { label = "FLOWEXPECT"; run = i; reason = "above OPT-offline" })
          (runs_of (Array.length fe))
      | _ ->
        [ { label = "FLOWEXPECT"; run = -1; reason = "OPT or FlowExpect missing" } ]
    in
    {
      runs = 2 * Array.length traces;
      program =
        (fun ~jobs ->
          table_of_summaries
            (Runner.compare_joining ~setup ~traces ~policies ~jobs ()));
      traced;
      check;
    }
  in
  { name = "floor-flowexpect"; setup }

(* Sub-workloads run one after another, each on its own inputs, as one
   workload; table labels carry the sub-workload's name. *)
let composite name parts =
  let setup ~seed (p : phase) =
    let parts = List.map (fun w -> (w.name, w.setup ~seed p)) parts in
    let tag name = List.map (fun (label, v) -> (name ^ "/" ^ label, v)) in
    let untag name table =
      let prefix = name ^ "/" in
      let n = String.length prefix in
      List.filter_map
        (fun (label, v) ->
          if String.starts_with ~prefix label then
            Some (String.sub label n (String.length label - n), v)
          else None)
        table
    in
    {
      runs = List.fold_left (fun acc (_, p) -> acc + p.runs) 0 parts;
      program =
        (fun ~jobs ->
          List.concat_map (fun (name, p) -> tag name (p.program ~jobs)) parts);
      traced =
        (fun tr ~parent ->
          List.concat_map
            (fun (name, p) ->
              tag name
                (Spans.with_ tr ~parent:parent.Spans.id name (fun sp ->
                     p.traced tr ~parent:sp)))
            parts);
      check =
        (fun table ->
          List.concat_map
            (fun (name, p) ->
              List.map
                (fun f -> { f with label = name ^ "/" ^ f.label })
                (p.check (untag name table)))
            parts);
    }
  in
  { name; setup }

(* Two workloads, the two sides of the paper: the three joining
   configurations in one, the caching pipeline in the other.  Fewer,
   longer runs ride out more of a shared host's slow phases than four
   shorter ones in the same total time. *)
let workloads =
  [
    composite "joining" [ tower_fig8; zipf_window; floor_flowexpect ];
    { real_fig13 with name = "caching" };
  ]

(* --- measurement ------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

(* Account one pass: its checks, plus bit-identity with the first pass. *)
let account tally (prepared : prepared) ~reference ~pass result =
  tally.attempted <- tally.attempted + prepared.runs;
  match result with
  | Error e ->
    Printf.eprintf "perfbench: %s pass raised %s\n%!" pass
      (Printexc.to_string e);
    tally.failed <- tally.failed + prepared.runs
  | Ok table ->
    let identity =
      match !reference with
      | None ->
        reference := Some table;
        []
      | Some reference -> mismatches ~what:"cross-pass identity" ~reference table
    in
    let failures = prepared.check table @ identity in
    List.iteri
      (fun i f ->
        if i < 5 then
          Printf.eprintf "perfbench: %s pass: %s run %d: %s\n%!" pass f.label
            f.run f.reason)
      failures;
    tally.failed <- tally.failed + failed_runs table failures

let timed_pass (prepared : prepared) ~jobs ~obs =
  Obs.set_enabled obs;
  Obs.reset ();
  Gc.full_major ();
  let t0 = now_ns () in
  let result = try Ok (prepared.program ~jobs) with e -> Error e in
  let wall = secs (now_ns () - t0) in
  Obs.set_enabled false;
  (wall, result, if obs then Obs.snapshot () else [])

let counter snapshot name =
  List.fold_left
    (fun acc v ->
      match v with
      | Obs.Counter_v { name = n; value } when n = name -> float_of_int value
      | _ -> acc)
    0.0 snapshot

(* One set-up sample: set-ups back to back from a collected heap until
   20 ms have passed, at least one; the time per set-up.  Only the time
   is kept; every pass runs on the first set-up's inputs. *)
let setup_sample w ~seed =
  Gc.full_major ();
  let t0 = now_ns () in
  let rec go n =
    ignore (Sys.opaque_identity (w.setup ~seed untimed));
    let dt = now_ns () - t0 in
    if dt < 20_000_000 then go (n + 1) else secs dt /. float_of_int n
  in
  go 1

type walls = {
  setup_s : float;
  wall_s : float;
  wall_s_par : float;
  obs_wall_s : float;
  obs_snapshot : Obs.view list;
}

(* Share the time until [deadline] (monotonic ns; output checks count
   against it) between jobs=1 / jobs=nproc / obs-on passes: the next pass
   is of the mode with the least pass time so far, and starts only if
   its mode's last pass would still end in time.  Every mode gets at
   least two passes; each metric is the median of its mode's passes.
   (On a shared 2-core VM, whose other tenants slow every pass in phases
   of seconds to minutes, the median's run-to-run spread was no worse
   than the mean's and smaller than the minimum's, per pass or per slice
   of a pass.)  A set-up sample precedes every pass, so set-up time, too, is
   a median over the whole window. *)
type mode = {
  jobs : int;
  obs : bool;
  pass : string;
  mutable walls : float list;
  mutable spent : float;
  mutable last : int;
}

let measure_passes w ~seed prepared ~deadline tally reference =
  let mode jobs obs pass = { jobs; obs; pass; walls = []; spent = 0.0; last = 0 } in
  let serial = mode 1 false "jobs=1"
  and par = mode nproc false "jobs=nproc"
  and observed = mode 1 true "obs-on" in
  let modes = [ serial; par; observed ] in
  let snap = ref [] and setups = ref [] in
  let next () =
    match List.find_opt (fun m -> List.length m.walls < 2) modes with
    | Some m -> Some m
    | None ->
      let m =
        List.fold_left (fun a b -> if b.spent < a.spent then b else a) serial modes
      in
      if now_ns () + m.last < deadline then Some m else None
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some m ->
      let c0 = now_ns () in
      setups := setup_sample w ~seed :: !setups;
      let wall, result, s = timed_pass prepared ~jobs:m.jobs ~obs:m.obs in
      account tally prepared ~reference ~pass:m.pass result;
      m.last <- now_ns () - c0;
      m.walls <- wall :: m.walls;
      m.spent <- m.spent +. wall;
      if m.obs then snap := s;
      loop ()
  in
  loop ();
  let median m = percentile 0.5 m.walls in
  {
    setup_s = percentile 0.5 !setups;
    wall_s = median serial;
    wall_s_par = median par;
    obs_wall_s = median observed;
    obs_snapshot = !snap;
  }

(* --- per-layer metrics from the traced pass ---------------------------- *)

let join_policies =
  [ ("RAND", "rand"); ("PROB", "prob"); ("LIFE", "life"); ("HEEB", "heeb");
    ("HEEB-W", "heeb-w") ]

let cache_policies =
  [ ("RAND", "rand"); ("LRU", "lru"); ("PROB(LFU)", "lfu"); ("HEEB", "heeb") ]

let attr (sp : Spans.span) k =
  match List.assoc_opt k sp.Spans.attrs with
  | Some (I v) -> float_of_int v
  | Some (F v) -> v
  | _ -> 0.0

let label_of (sp : Spans.span) =
  match List.assoc_opt "policy" sp.Spans.attrs with Some (S l) -> l | _ -> ""

(* [program_s] is the traced pass without its set-up. *)
let per_layer tr ~(walls : walls) ~program_s =
  let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs in
  let dur sp = float_of_int (Spans.duration sp) in
  let phase name = sum dur (Spans.named tr name) *. 1e-9 in
  let joins = Spans.named tr "join_sim.run" in
  let caches = Spans.named tr "cache_sim.run" in
  let policy_ns sp = float_of_int (Spans.aggregated_ns tr sp) in
  let labelled label = List.filter (fun sp -> label_of sp = label) in
  let self_per_step spans =
    ratio (sum (fun sp -> dur sp -. policy_ns sp) spans)
      (sum (fun sp -> attr sp "steps") spans)
  in
  let hist_of spans =
    let h = Hist.create () in
    List.iter
      (fun (a : Spans.aggregate) ->
        if List.exists (fun (sp : Spans.span) -> sp.Spans.id = a.a_parent) spans
        then Hist.merge_into h a.Spans.hist)
      tr.Spans.aggs;
    h
  in
  let all_join_ns = sum dur joins in
  let join_metrics (label, key) =
    let spans = labelled label joins in
    let h = hist_of spans in
    let name = Printf.sprintf "%s.%s.%s" in
    let bytes =
      sum (fun sp -> attr sp "minor_words") spans
      *. float_of_int (Sys.word_size / 8)
    in
    [
      (name "policy" key "ns_per_step", Hist.mean h, "ns");
      (name "policy" key "step_ns_p50", Hist.quantile h 0.50, "ns");
      (name "policy" key "step_ns_p99", Hist.quantile h 0.99, "ns");
      (name "policy" key "step_samples", float_of_int h.Hist.n, "count");
      (name "policy" key "run_share", ratio (sum dur spans) all_join_ns, "ratio");
      ( name "alloc" key "bytes_per_step",
        ratio bytes (sum (fun sp -> attr sp "steps") spans),
        "B" );
    ]
  in
  let cache_metric (label, key) =
    ( Printf.sprintf "cache_policy.%s.ns_per_step" key,
      Hist.mean (hist_of (labelled label caches)),
      "ns" )
  in
  let flow = hist_of (labelled "FLOWEXPECT" joins) in
  let lfd = labelled "LFD" caches in
  let cache_policy_s = (sum policy_ns caches -. sum policy_ns lfd) *. 1e-9 in
  let surfaces_s = phase "precompute.ar1_caching_surfaces" in
  let engine_ms = List.map (fun sp -> dur sp *. 1e-6) (joins @ caches) in
  let c = counter walls.obs_snapshot in
  let steps = c "join_sim.steps" +. c "cache_sim.accesses" in
  [
    ("stream.generate_s", phase "stream.generate", "s");
    ("stream.materialise_s", phase "stream.materialise", "s");
    ("engine.join_self_ns_per_step", self_per_step joins, "ns");
    ("engine.cache_self_ns_per_step", self_per_step caches, "ns");
    ("engine.run_ms_p50", percentile 0.50 engine_ms, "ms");
    ("engine.run_ms_p95", percentile 0.95 engine_ms, "ms");
    ("engine.run_samples", float_of_int (List.length engine_ms), "count");
    ( "runner.par_efficiency",
      ratio walls.wall_s (float_of_int nproc *. walls.wall_s_par),
      "ratio" );
  ]
  @ List.concat_map join_metrics join_policies
  @ [
      ( "policy.dead_candidate_ratio",
        ratio (c "policy.dead_candidates") (c "policy.candidates"),
        "ratio" );
      ( "join_sim.evictions_per_step",
        ratio (c "join_sim.evictions") (c "join_sim.steps"),
        "count" );
      ("join_sim.policy_share", ratio (sum policy_ns joins) all_join_ns, "ratio");
      ("join_sim.runs", float_of_int (List.length joins), "count");
      ("precompute.surfaces_s", surfaces_s, "s");
    ]
  @ List.map cache_metric cache_policies
  @ [
      ("opt.lfd_s", sum dur lfd *. 1e-9, "s");
      ( "cache_sim.hit_ratio",
        ratio (c "cache_sim.hits") (c "cache_sim.accesses"),
        "ratio" );
      ("cache_sim.runs", float_of_int (List.length caches), "count");
      ( "cache.precompute_policy_share",
        ratio (surfaces_s +. cache_policy_s) program_s,
        "ratio" );
      ("flow_expect.decide_us_p50", Hist.quantile flow 0.50 *. 1e-3, "us");
      ("flow_expect.decide_us_p95", Hist.quantile flow 0.95 *. 1e-3, "us");
      ("flow_expect.decide_samples", float_of_int flow.Hist.n, "count");
      ("opt.offline_s", phase "opt_offline.max_results_from", "s");
      ( "flow_expect.law_warm_hit_ratio",
        ratio
          (c "flow_expect.law_warm_hits")
          (c "flow_expect.law_warm_hits" +. c "flow_expect.law_warm_misses"),
        "ratio" );
      ( "mcmf.graph_reuse_ratio",
        ratio (c "mcmf.graph_reuse") (c "mcmf.graph_reuse" +. c "mcmf.graph_create"),
        "ratio" );
      ( "mcmf.dijkstra_pops_per_solve",
        ratio (c "mcmf.dijkstra_pops") (c "mcmf.solves"),
        "count" );
      ( "mcmf.augmentations_per_solve",
        ratio (c "mcmf.augmentations") (c "mcmf.solves"),
        "count" );
      ( "obs.overhead_ns_per_step",
        ratio ((walls.obs_wall_s -. walls.wall_s) *. 1e9) steps,
        "ns" );
      ( "trace.overhead_pct",
        100.0 *. ratio (program_s -. walls.wall_s) walls.wall_s,
        "%" );
    ]

(* --- commands ------------------------------------------------------------ *)

let context ~workload ~seed =
  [
    ("workload", S workload);
    ("seed", I seed);
    ("nproc", I nproc);
    ("jobs_par", I nproc);
    ("ocaml", S Sys.ocaml_version);
  ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "perfbench: unknown workload %S\n" name;
    exit 2

(* The traced pass: set-up and program once more at jobs=1, with a span
   around every layer call; returns the per-layer metrics. *)
let traced_metrics w ~seed ~prepared ~walls ~tally ~reference ~context ~spans =
  let tr = Spans.create () in
  Gc.full_major ();
  let root = Spans.start tr ~parent:(-1) "workload" in
  root.Spans.attrs <- [ ("workload", S w.name) ];
  let result =
    try
      let p =
        Spans.with_ tr ~parent:root.Spans.id "setup" (fun sp ->
            w.setup ~seed (span_phases tr sp))
      in
      Ok (p.traced tr ~parent:root)
    with e -> Error e
  in
  Spans.finish root;
  account tally prepared ~reference ~pass:"traced" result;
  Spans.write tr ~context spans;
  let setup_ns = List.fold_left (fun acc sp -> acc + Spans.duration sp) 0 in
  let program_s =
    secs (Spans.duration root - setup_ns (Spans.named tr "setup"))
  in
  per_layer tr ~walls ~program_s

(* A run is bounded by [seconds] from its start.  The first set-up and a
   first jobs=1 pass come from a fresh process: they give the peak major
   heap and warm the process up, and are checked but not timed.  The
   traced pass, when asked for, gets 1.5 times their duration kept back
   from the bound. *)
let cmd_run ~workload ~seed ~seconds ~trace ~spans =
  let start = now_ns () in
  let w = find_workload workload in
  let tally = { attempted = 0; failed = 0 } in
  let reference = ref None in
  let t0 = now_ns () in
  let prepared = w.setup ~seed untimed in
  let first_setup = now_ns () - t0 in
  let t1 = now_ns () in
  let result = try Ok (prepared.program ~jobs:1) with e -> Error e in
  let first_pass = now_ns () - t1 in
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  let heap_peak_mb = float_of_int (top * (Sys.word_size / 8)) /. 1048576.0 in
  account tally prepared ~reference ~pass:"first" result;
  let reserve = if trace then 3 * (first_setup + first_pass) / 2 else 0 in
  let deadline = start + int_of_float (seconds *. 1e9) - reserve in
  let walls = measure_passes w ~seed prepared ~deadline tally reference in
  let context = context ~workload ~seed in
  let metrics =
    if trace then
      traced_metrics w ~seed ~prepared ~walls ~tally ~reference ~context ~spans
    else
      [
        ("setup_s", walls.setup_s, "s");
        ("wall_s", walls.wall_s, "s");
        ("wall_s_par", walls.wall_s_par, "s");
        ("obs_wall_s", walls.obs_wall_s, "s");
        ("heap_peak_mb", heap_peak_mb, "MB");
      ]
  in
  print_endline (json_string (O (("kind", S "context") :: context)));
  print_endline
    (json_string
       (O
          [
            ("correct", B (tally.failed = 0));
            ("attempted", I tally.attempted);
            ("failed", I tally.failed);
            ( "metrics",
              O
                (List.map
                   (fun (name, value, unit) ->
                     (name, O [ ("value", F value); ("unit", S unit) ]))
                   metrics) );
          ]))

(* --- self-test: the output checks count wrong runs as failed ----------- *)

let cmd_selftest () =
  let ok = ref true in
  let expect what cond =
    Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") what;
    if not cond then ok := false
  in
  (* A summary one ulp off its golden fails exactly that summary's runs. *)
  let tower = Config.tower () in
  let prepared = tower_fig8.setup ~seed:canonical_seed untimed in
  let table = prepared.program ~jobs:nproc in
  expect "tower-fig8 at seed 42 matches its golden" (prepared.check table = []);
  let nudged =
    List.map
      (fun s ->
        if s.Runner.label <> "PROB" then s
        else { s with Runner.mean = Float.succ s.Runner.mean })
      (summaries_of_table table)
  in
  let failures =
    golden_failures ~expected:Golden.expected_fig8 (fig8_digests nudged)
  in
  expect "a mean one ulp off its golden is caught"
    (List.map (fun f -> f.label) failures = [ "PROB" ]
    && failed_runs table failures = Golden.canonical_runs);
  (* An injected engine fault on a small band case fails the run through
     the reference-simulator comparator. *)
  let r, s = Config.predictors tower in
  let trace = Trace.generate ~r ~s ~rng:(Rng.create 7) ~length:300 in
  let band = 2 and capacity = 10 in
  let make () = Baselines.prob ~lifetime:(Config.lifetime tower) () in
  let reference =
    let r = Ref_sim.run ~trace ~policy:(make ()) ~capacity ~band () in
    [ ("PROB", [| float_of_int r.Ref_sim.counted_results |]) ]
  in
  let engine () =
    let r = Join_sim.run ~trace ~policy:(make ()) ~capacity ~band () in
    [ ("PROB", [| float_of_int r.Join_sim.counted_results |]) ]
  in
  let failed table =
    failed_runs table (mismatches ~what:"Ref_sim" ~reference table)
  in
  expect "honest band engine matches Ref_sim" (failed (engine ()) = 0);
  let skewed =
    Fun.protect
      ~finally:(fun () -> Join_index.Testhook.set_band_probe_skew 0)
      (fun () ->
        Join_index.Testhook.set_band_probe_skew 1;
        engine ())
  in
  expect "band-probe skew is counted as one failed run" (failed skewed = 1);
  (* FlowExpect above its OPT bound is a failure. *)
  let fe = floor_flowexpect.setup ~seed:canonical_seed untimed in
  let fe_table = fe.program ~jobs:nproc in
  expect "FlowExpect within OPT-offline" (fe.check fe_table = []);
  let inflated =
    List.map
      (fun (label, v) ->
        if label <> "FLOWEXPECT" then (label, v)
        else (label, Array.map (fun x -> x +. 1e6) v))
      fe_table
  in
  expect "FlowExpect above OPT-offline is caught"
    (failed_runs inflated (fe.check inflated)
    = Array.length (List.assoc "FLOWEXPECT" fe_table));
  if not !ok then exit 1

(* --- command line --------------------------------------------------------- *)

let () =
  Obs.set_enabled false;
  Obs.set_event_sink `Null;
  let args = Array.to_list Sys.argv in
  let rec find key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> find key rest
    | [] -> None
  in
  let get key =
    match find key args with
    | Some v -> v
    | None ->
      Printf.eprintf "perfbench: missing %s\n" key;
      exit 2
  in
  let int key =
    match int_of_string_opt (get key) with
    | Some v -> v
    | None ->
      Printf.eprintf "perfbench: %s needs an integer\n" key;
      exit 2
  in
  match List.tl args with
  | "run" :: _ ->
    cmd_run ~workload:(get "--workload") ~seed:(int "--seed")
      ~seconds:(float_of_int (int "--seconds"))
      ~trace:(int "--trace" <> 0) ~spans:(get "--spans")
  | "selftest" :: _ -> cmd_selftest ()
  | _ ->
    prerr_endline "usage: bench.exe (run|selftest) [options]";
    exit 2
