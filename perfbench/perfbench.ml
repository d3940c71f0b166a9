open Perfbench_lib

(** perfbench: the repository's benchmark, end to end and per layer.

    {v
    perfbench.exe --workload suite-sim|static-check|serve-mix
                  --seed N --seconds S --trace 0|1 --muirc PATH
    v}

    Run from the root of a source checkout (it reads
    [bench/baseline.json] and writes scratch files under [.perfbench/]).
    Prints a human-readable summary, one detail JSON line (every metric
    with its unit, raw and normalised timings, provenance, tail
    percentile, findings), and as the last line the result object
    [{"correct","attempted","failed","metrics"}]: the end-to-end metrics
    with [--trace 0], the per-layer metrics with [--trace 1].  See
    [perfbench/README.md]. *)

module W = Muir_workloads.Workloads
module R = Muir_trace.Report
module J = Muir_trace.Json
module Span = Muir_obs.Span
module L = Layers
module S = Serve_mix

(* ------------------------------------------------------------------ *)
(* The metric catalogue: names and units exactly as in BENCHMARK.json  *)

let end_to_end =
  [ ("ops_per_s", "1/s"); ("latency_p50_ms", "ms"); ("latency_tail_ms", "ms");
    ("sim_cycles_per_s", "1/s"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

let per_layer =
  [ ("frontend.compile_ms", "ms"); ("muir.build_ms", "ms");
    ("muir.nodes", "count"); ("muopt.optimize_ms", "ms");
    ("muopt.passes_applied", "count"); ("muopt.nodes_after", "count");
    ("rtl.lower_ms", "ms"); ("model.model_ms", "ms");
    ("sim.simulate_ms", "ms"); ("sim.cycles", "count"); ("sim.fires", "count");
    ("sim.kcycles_per_s", "1/s"); ("sim.woken_per_cycle", "count");
    ("sim.minor_words_per_cycle", "count"); ("sim.major_gcs", "count");
    ("trace.report_ms", "ms"); ("analysis.check_ms", "ms");
    ("analysis.timing_ms", "ms"); ("analysis.diags", "count");
    ("serve.cached_p50_ms", "ms"); ("serve.fresh_p50_ms", "ms");
    ("serve.fresh_tail_ms", "ms"); ("serve.hit_ratio", "ratio");
    ("serve.reply_bytes", "B"); ("serve.errors", "count");
    ("serve.rejects", "count"); ("serve.rcache_entries", "count");
    ("serve.rcache_disk_bytes", "B"); ("gc.minor_mb_per_op", "MB");
    ("gc.major_per_op", "count") ]

(** What one run measured.  Per-layer metrics a workload does not
    exercise are absent and print as 0. *)
type outcome = {
  attempted : int;
  failed : int;
  findings : string list;
  rounds : int;                      (** suite passes or serve sessions *)
  values : (string * float) list;
  raw : (string * float) list;       (** timings before normalisation *)
  tail : Plan.tail;
  overhead : (float * float) option; (** mean op ms: traced, untraced *)
  self_ms : (string * float) list;   (** traced: mean self ms per op *)
  spans : Span.t list;
}

let now = Unix.gettimeofday
let ms_of s = s *. 1000.0
let scratch = ".perfbench"
let sum = Array.fold_left ( +. ) 0.0

(** Throughput, median and tail of a run's op latencies (ms). *)
let timings (lat : float array) : (string * float) list =
  [ ("ops_per_s", float_of_int (Array.length lat) /. (sum lat /. 1000.0));
    ("latency_p50_ms", Plan.median lat);
    ("latency_tail_ms", (Plan.tail lat).t_value) ]

(** [secs] divided by the host's speed factor around the interval. *)
let normalised (cal : Calib.t) ~(t0 : float) (secs : float) : float =
  secs /. Calib.factor cal (t0 +. (secs /. 2.0))

(* ------------------------------------------------------------------ *)
(* suite-sim and static-check                                          *)

type kind = Suite_sim | Static_check

(** Passes over the 48 pairs per second of [--seconds]: fixed, so the
    work of a run never depends on the host's speed, and sized so a run
    takes about [--seconds] on a 2-core shared host with the op count
    well inside one tail rung (suite-sim: p95, static-check: p99). *)
let passes_per_second = function Suite_sim -> 0.5 | Static_check -> 4.0

(** Set-up repetitions per run; [setup_s] is their median. *)
let setup_reps = 5

(** Everything before the first timed op: the registry's nn-model
    lowering (done again here, since module initialisation did it once
    already), the 48 pairs, and the baseline oracle table. *)
let setup () : L.pair array * (string * string, R.run) Hashtbl.t =
  let models = List.map (fun n -> W.nn_workload n) [ "mlp"; "lenet" ] in
  let ws =
    List.map
      (fun (w : W.t) ->
        match List.find_opt (fun (m : W.t) -> m.wname = w.wname) models with
        | Some m -> m
        | None -> w)
      W.all
  in
  let pairs = L.pairs ws in
  let base = Hashtbl.create 64 in
  List.iter
    (fun (r : R.run) -> Hashtbl.replace base (r.r_workload, r.r_stack) r)
    (R.load "bench/baseline.json").su_runs;
  Array.iter
    (fun (p : L.pair) ->
      if not (Hashtbl.mem base (p.w.wname, p.stack)) then
        failwith ("bench/baseline.json has no entry for " ^ L.pair_name p))
    pairs;
  (pairs, base)

(** Per-pair facts that must repeat exactly in every pass. *)
type exact = {
  x_nodes : int;
  x_nodes_after : int;
  x_applied : int;
  x_cycles : int;   (** simulated (suite-sim) or baseline (static-check) *)
  x_fires : int;
  x_diags : int;
}

(** One timed op: wall start and seconds, its normalised seconds, and
    the layer calls of a traced op (chronological; empty untraced). *)
type op = {
  o_pair : int;
  o_round : int;
  o_t0 : float;
  o_dt : float;
  mutable o_norm : float;
  o_segs : (L.layer * float * float) list;
}

let run_inproc (kind : kind) ~seed ~seconds ~trace : outcome =
  let cal = Calib.create () in
  let setups =
    List.init setup_reps (fun _ ->
        Calib.sample cal;
        let t0 = now () in
        let r = setup () in
        (r, t0, now () -. t0))
  in
  let (pairs, base), _, _ = List.hd setups in
  let n = Array.length pairs in
  let golden = Hashtbl.create 32 in
  let golden_of (w : W.t) =
    match Hashtbl.find_opt golden w.wname with
    | Some g -> g
    | None ->
      let g = L.golden w in
      Hashtbl.replace golden w.wname g;
      g
  in
  let exact = Array.make n None in
  let ops = ref [] in
  let failed = ref 0 and findings = ref [] in
  let fail msg =
    incr failed;
    findings := msg :: !findings
  in
  let woken = ref 0.0 and minor_w = ref 0.0 and sim_cycles = ref 0 in
  let sim_majors = ref 0 in
  let gc_minor = ref 0.0 and gc_major = ref 0 in
  let one_op ~round ~traced i =
    let p = pairs.(i) in
    let b = Hashtbl.find base (p.w.wname, p.stack) in
    let rc = if traced then Some { L.segs = [] } else None in
    Calib.maybe_sample cal;
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let res =
      try
        Ok
          (match kind with
          | Suite_sim -> `Sim (L.simulate_op rc p)
          | Static_check -> `Check (L.check_op rc p))
      with e -> Error e
    in
    let dt = now () -. t0 in
    let g1 = Gc.quick_stat () in
    gc_minor := !gc_minor +. (g1.minor_words -. g0.minor_words);
    gc_major := !gc_major + (g1.major_collections - g0.major_collections);
    ops :=
      { o_pair = i; o_round = round; o_t0 = t0; o_dt = dt; o_norm = dt;
        o_segs = (match rc with Some rc -> List.rev rc.segs | None -> []) }
      :: !ops;
    let record x finding =
      (match exact.(i) with
      | None -> exact.(i) <- Some x
      | Some x0 when x0 <> x ->
        fail (Fmt.str "%s: exact counts changed between passes" (L.pair_name p))
      | Some _ -> ());
      Option.iter fail finding
    in
    match res with
    | Error e -> fail (Fmt.str "%s: %s" (L.pair_name p) (Printexc.to_string e))
    | Ok (`Sim (o : L.sim_out)) ->
      let st = o.s_result.stats in
      let cyc = float_of_int st.cycles in
      sim_cycles := !sim_cycles + st.cycles;
      woken := !woken +. (st.woken_per_cycle *. cyc);
      minor_w := !minor_w +. (st.gc_minor_words_per_cycle *. cyc);
      sim_majors := !sim_majors + st.gc_major_collections;
      let f = o.s_front in
      record
        { x_nodes = f.nodes; x_nodes_after = f.nodes_after;
          x_applied = f.applied; x_cycles = o.s_report.r_cycles;
          x_fires = o.s_report.r_fires; x_diags = 0 }
        (L.verify_sim ~golden:(golden_of p.w) ~base:b p o)
    | Ok (`Check (o : L.check_out)) ->
      let f = o.c_front in
      record
        { x_nodes = f.nodes; x_nodes_after = f.nodes_after;
          x_applied = f.applied; x_cycles = b.r_cycles; x_fires = 0;
          x_diags = List.length o.c_diags }
        (L.verify_check ~base:b p o)
  in
  let rounds =
    max (if trace then 2 else 1)
      (Float.to_int (Float.round (seconds *. passes_per_second kind)))
  in
  for round = 0 to rounds - 1 do
    let traced = trace && round mod 2 = 0 in
    Array.iter (one_op ~round ~traced)
      (Plan.shuffle ~seed ~round (Array.init n Fun.id))
  done;
  Calib.sample cal;
  let ops = Array.of_list (List.rev !ops) in
  Array.iter (fun o -> o.o_norm <- normalised cal ~t0:o.o_t0 o.o_dt) ops;
  let lat = Array.map (fun o -> ms_of o.o_norm) ops in
  let nops = float_of_int (Array.length ops) in
  let samples = Array.make n [] in
  Array.iter (fun o -> samples.(o.o_pair) <- o.o_norm :: samples.(o.o_pair)) ops;
  let per_pair_rate =
    Array.to_list exact
    |> List.mapi (fun i x ->
           Option.map
             (fun x ->
               float_of_int x.x_cycles /. Plan.median (Array.of_list samples.(i)))
             x)
    |> List.filter_map Fun.id |> Array.of_list
  in
  (* Layer times come from traced passes, normalised like their op. *)
  let traced = List.filter (fun o -> o.o_segs <> []) (Array.to_list ops) in
  let ntraced = float_of_int (List.length traced) in
  let layer_s = Array.make (List.length L.all_layers) 0.0 in
  List.iter
    (fun o ->
      List.iter
        (fun (l, _, d) ->
          layer_s.(L.index l) <- layer_s.(L.index l) +. (d *. o.o_norm /. o.o_dt))
        o.o_segs)
    traced;
  let layer_ms l = ms_of (layer_s.(L.index l) /. ntraced) in
  let traced_s = List.fold_left (fun a o -> a +. o.o_norm) 0.0 traced in
  let tally f =
    float_of_int
      (Array.fold_left (fun a x -> a + Option.fold ~none:0 ~some:f x) 0 exact)
  in
  let fcyc = float_of_int !sim_cycles in
  let values =
    timings lat
    @ [ ("sim_cycles_per_s", Plan.geomean per_pair_rate);
        ("peak_rss_mb", S.peak_rss_mb (Unix.getpid ()));
        ( "setup_s",
          Plan.median
            (Array.of_list
               (List.map (fun (_, t0, s) -> normalised cal ~t0 s) setups)) );
        ("muir.nodes", tally (fun x -> x.x_nodes));
        ("muopt.passes_applied", tally (fun x -> x.x_applied));
        ("muopt.nodes_after", tally (fun x -> x.x_nodes_after));
        ( "gc.minor_mb_per_op",
          !gc_minor *. float_of_int (Sys.word_size / 8) /. 1e6 /. nops );
        ("gc.major_per_op", float_of_int !gc_major /. nops) ]
    @ (match kind with
      | Suite_sim ->
        [ ("sim.cycles", tally (fun x -> x.x_cycles));
          ("sim.fires", tally (fun x -> x.x_fires));
          ("sim.woken_per_cycle", !woken /. fcyc);
          ("sim.minor_words_per_cycle", !minor_w /. fcyc);
          ("sim.major_gcs", float_of_int !sim_majors /. nops) ]
      | Static_check -> [ ("analysis.diags", tally (fun x -> x.x_diags)) ])
    @
    if traced = [] then []
    else
      List.filter_map
        (fun (m, l) ->
          if layer_s.(L.index l) > 0.0 then Some (m, layer_ms l) else None)
        [ ("frontend.compile_ms", L.Compile); ("muir.build_ms", L.Build);
          ("muopt.optimize_ms", L.Optimize); ("rtl.lower_ms", L.Lower);
          ("model.model_ms", L.Model); ("sim.simulate_ms", L.Simulate);
          ("trace.report_ms", L.Report); ("analysis.check_ms", L.Check);
          ("analysis.timing_ms", L.Timing) ]
      @
      match kind with
      | Suite_sim ->
        let cycles =
          List.fold_left
            (fun a o ->
              a + Option.fold ~none:0 ~some:(fun x -> x.x_cycles) exact.(o.o_pair))
            0 traced
        in
        [ ( "sim.kcycles_per_s",
            float_of_int cycles /. layer_s.(L.index L.Simulate) /. 1000.0 ) ]
      | Static_check -> []
  in
  let cat =
    match kind with Suite_sim -> "suite-sim" | Static_check -> "static-check"
  in
  { attempted = Array.length ops; failed = !failed;
    findings = List.rev !findings; rounds; values;
    raw = timings (Array.map (fun o -> ms_of o.o_dt) ops);
    tail = Plan.tail lat;
    overhead =
      (if traced <> [] && ntraced < nops then
         Some
           ( ms_of (traced_s /. ntraced),
             ms_of ((sum (Array.map (fun o -> o.o_norm) ops) -. traced_s)
                    /. (nops -. ntraced)) )
       else None);
    self_ms =
      (if traced = [] then []
       else
         List.filter_map
           (fun l ->
             if layer_s.(L.index l) > 0.0 then Some (L.name l, layer_ms l)
             else None)
           L.all_layers
         @ [ ("(op glue)", ms_of ((traced_s -. sum layer_s) /. ntraced)) ]);
    spans =
      List.map
        (fun o ->
          { Span.sp_id = o.o_round + 1; sp_name = L.pair_name pairs.(o.o_pair);
            sp_cat = cat; sp_start = o.o_t0; sp_dur = o.o_dt;
            sp_segs =
              List.map
                (fun (l, s, d) ->
                  { Span.sg_name = L.name l; sg_off = s -. o.o_t0; sg_dur = d })
                o.o_segs })
        traced }

(* ------------------------------------------------------------------ *)
(* serve-mix                                                           *)

(** Daemon launches made only to sample set-up time, before the
    sessions (each session's own launch adds one more sample). *)
let setup_probes = 8

(** Sessions per second of [--seconds]: one session replays all 384
    keys and takes about 25 s on a 2-core shared host. *)
let sessions_per_second = 0.04

let run_serve ~muirc ~seed ~seconds : outcome =
  let keys = S.keys () in
  let cal = Calib.create () in
  let dir = Filename.concat scratch (Fmt.str "serve-%d" (Unix.getpid ())) in
  let probes =
    List.init setup_probes (fun _ ->
        Calib.sample cal;
        let t0 = now () in
        let d, s = S.launch ~muirc ~dir in
        S.shutdown d;
        (t0, s))
  in
  let rounds =
    max 1 (Float.to_int (Float.round (seconds *. sessions_per_second)))
  in
  let ss =
    List.init rounds (fun round -> S.session ~muirc ~dir ~seed ~round ~cal keys)
  in
  Calib.sample cal;
  S.rm_rf dir;
  let replies =
    Array.of_list (List.concat_map (fun (s : S.session) -> s.se_replies) ss)
  in
  let norm_ms (q : S.reply) =
    ms_of (normalised cal ~t0:q.q_start (q.q_ms /. 1000.0))
  in
  let lat = Array.map norm_ms replies in
  let pick fresh =
    Array.of_list
      (List.filter_map
         (fun (q : S.reply) -> if q.q_fresh = fresh then Some (norm_ms q) else None)
         (Array.to_list replies))
  in
  let cached = pick false and fresh = pick true in
  let per_key = Hashtbl.create 512 in
  Array.iteri
    (fun k (q : S.reply) ->
      let c, ts =
        Option.value ~default:(q.q_cycles, []) (Hashtbl.find_opt per_key q.q_key)
      in
      Hashtbl.replace per_key q.q_key (max c q.q_cycles, (lat.(k) /. 1000.0) :: ts))
    replies;
  let rates =
    Hashtbl.fold
      (fun _ (c, ts) acc ->
        if c > 0 then (float_of_int c /. Plan.median (Array.of_list ts)) :: acc
        else acc)
      per_key []
    |> Array.of_list
  in
  let nops = float_of_int (Array.length replies) in
  let total f = List.fold_left (fun a s -> a + f s) 0 ss in
  let last = List.hd (List.rev ss) in
  let setups =
    probes @ List.map (fun (s : S.session) -> s.se_setup) ss
    |> List.map (fun (t0, s) -> normalised cal ~t0 s)
  in
  let values =
    timings lat
    @ [ ("sim_cycles_per_s", Plan.geomean rates);
        ( "peak_rss_mb",
          Plan.median
            (Array.of_list (List.map (fun (s : S.session) -> s.se_rss_mb) ss)) );
        ("setup_s", Plan.median (Array.of_list setups));
        ("serve.cached_p50_ms", Plan.median cached);
        ("serve.fresh_p50_ms", Plan.median fresh);
        ("serve.fresh_tail_ms", (Plan.tail fresh).t_value);
        ("serve.hit_ratio", float_of_int (Array.length cached) /. nops);
        ( "serve.reply_bytes",
          sum (Array.map (fun (q : S.reply) -> float_of_int q.q_bytes) replies)
          /. nops );
        ("serve.errors", float_of_int (total (fun s -> s.se_errors)));
        ("serve.rejects", float_of_int (total (fun s -> s.se_rejects)));
        ("serve.rcache_entries", float_of_int last.se_entries);
        ("serve.rcache_disk_bytes", float_of_int last.se_disk_bytes);
        ( "gc.minor_mb_per_op",
          List.fold_left (fun a (s : S.session) -> a +. s.se_minor_words) 0.0 ss
          *. float_of_int (Sys.word_size / 8) /. 1e6 /. nops );
        ("gc.major_per_op", float_of_int (total (fun s -> s.se_major_gcs)) /. nops) ]
  in
  let spans =
    List.concat
      (List.mapi
         (fun si (s : S.session) ->
           List.map
             (fun (q : S.reply) ->
               let dur = q.q_ms /. 1000.0 in
               { Span.sp_id = si + 1; sp_name = S.key_name keys.(q.q_key);
                 sp_cat =
                   (if q.q_fresh then "serve-mix.fresh" else "serve-mix.cached");
                 sp_start = q.q_start; sp_dur = dur;
                 sp_segs = [ { Span.sg_name = "rpc"; sg_off = 0.0; sg_dur = dur } ] })
             s.se_replies)
         ss)
  in
  { attempted = Array.length replies; failed = total (fun s -> s.se_failed);
    findings = List.concat_map (fun (s : S.session) -> s.se_findings) ss;
    rounds; values;
    raw = timings (Array.map (fun (q : S.reply) -> q.q_ms) replies);
    tail = Plan.tail lat; overhead = None;
    self_ms = [ ("rpc", sum lat /. nops) ]; spans }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let metric_json (v : float) (u : string) : J.t =
  J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]

let write_file (path : string) (s : string) : unit =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(** The host's online CPUs (the benchmark itself is pinned to one, which
    [Domain.recommended_domain_count] would report instead). *)
let nproc () : int =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | ic ->
    let rec go n =
      match input_line ic with
      | l -> go (if String.starts_with ~prefix:"processor" l then n + 1 else n)
      | exception End_of_file -> n
    in
    let n = go 0 in
    close_in ic;
    if n > 0 then n else Domain.recommended_domain_count ()

let report ~workload ~seed ~seconds ~trace (o : outcome) : unit =
  let pv = R.provenance () in
  let nproc = nproc () in
  let unit_of m =
    Option.value ~default:"" (List.assoc_opt m (end_to_end @ per_layer))
  in
  Fmt.pr "perfbench %s  seed %d  %gs  trace %d  nproc %d  OCaml %s  rev %s@."
    workload seed seconds (if trace then 1 else 0) nproc Sys.ocaml_version
    pv.pv_git_rev;
  Fmt.pr "ops attempted %d, failed %d, over %d round(s)@." o.attempted o.failed
    o.rounds;
  List.iter (fun f -> Fmt.pr "FINDING: %s@." f) o.findings;
  Fmt.pr "tail percentile p%g: %d of %d samples beyond it@." o.tail.t_pct
    o.tail.t_beyond o.tail.t_n;
  List.iter
    (fun (m, u) ->
      Option.iter
        (fun v -> Fmt.pr "  %-28s %16.4f %s@." m v u)
        (List.assoc_opt m o.values))
    (end_to_end @ per_layer);
  List.iter
    (fun (m, v) ->
      Fmt.pr "  %-28s %16.4f %s (raw wall clock)@." m v (unit_of m))
    o.raw;
  if trace then begin
    let total = List.fold_left (fun a (_, ms) -> a +. ms) 0.0 o.self_ms in
    Fmt.pr "traced run: mean self time per op, by layer@.";
    List.iter
      (fun (l, ms) ->
        Fmt.pr "  %-12s %10.4f ms  %5.1f%%@." l ms (100.0 *. ms /. total))
      o.self_ms;
    (match o.overhead with
    | Some (t, u) ->
      Fmt.pr "tracing overhead: traced op %.4f ms vs untraced %.4f ms (%+.2f%%)@."
        t u (100.0 *. (t -. u) /. u)
    | None ->
      Fmt.pr
        "tracing overhead: none (the op is one rpc call, timed the same way \
         in either mode)@.");
    let path =
      Filename.concat scratch (Fmt.str "trace-%s-seed%d.json" workload seed)
    in
    write_file path (Span.chrome o.spans);
    Fmt.pr "chrome trace: %s (%d op spans)@." path (List.length o.spans)
  end;
  let obj kvs =
    J.Obj (List.map (fun (k, v) -> (k, metric_json v (unit_of k))) kvs)
  in
  let detail =
    J.to_string
      (J.Obj
         [ ("perfbench", J.Int 1); ("workload", J.Str workload);
           ("seconds", J.Float seconds); ("trace", J.Bool trace);
           ( "provenance",
             J.Obj
               [ ("nproc", J.Int nproc);
                 ("cpus_used", J.Int (Domain.recommended_domain_count ()));
                 ("ocaml", J.Str Sys.ocaml_version);
                 ("git_rev", J.Str pv.pv_git_rev);
                 ("dune_profile", J.Str pv.pv_profile); ("seed", J.Int seed) ] );
           ( "ops",
             J.Obj
               [ ("attempted", J.Int o.attempted); ("failed", J.Int o.failed);
                 ("rounds", J.Int o.rounds) ] );
           ( "tail",
             J.Obj
               [ ("percentile", J.Float o.tail.t_pct);
                 ("samples_beyond", J.Int o.tail.t_beyond);
                 ("samples", J.Int o.tail.t_n) ] );
           ("metrics", obj o.values);
           ("raw_wall_clock", obj o.raw);
           ( "self_ms_per_op",
             J.Obj (List.map (fun (l, ms) -> (l, J.Float ms)) o.self_ms) );
           ( "tracing_overhead",
             match o.overhead with
             | Some (t, u) ->
               J.Obj [ ("traced_op_ms", J.Float t); ("untraced_op_ms", J.Float u) ]
             | None -> J.Null );
           ("findings", J.Arr (List.map (fun f -> J.Str f) o.findings)) ])
  in
  write_file
    (Filename.concat scratch
       (Fmt.str "result-%s-seed%d-trace%d.json" workload seed
          (if trace then 1 else 0)))
    detail;
  print_endline detail;
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool (o.failed = 0)); ("attempted", J.Int o.attempted);
            ("failed", J.Int o.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (m, u) ->
                     ( m,
                       metric_json
                         (Option.value ~default:0.0 (List.assoc_opt m o.values))
                         u ))
                   (if trace then per_layer else end_to_end)) ) ]))

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload suite-sim|static-check|serve-mix --seed N \
     --seconds S --trace 0|1 --muirc PATH";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and muirc = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--muirc" :: v :: rest -> muirc := v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0.0 ->
    if not (Sys.file_exists scratch) then Unix.mkdir scratch 0o755;
    let o =
      match !workload with
      | "suite-sim" -> run_inproc Suite_sim ~seed ~seconds ~trace
      | "static-check" -> run_inproc Static_check ~seed ~seconds ~trace
      | "serve-mix" when Sys.file_exists !muirc ->
        run_serve ~muirc:!muirc ~seed ~seconds
      | _ -> usage ()
    in
    report ~workload:!workload ~seed ~seconds ~trace o
  | _ -> usage ()
