(** The compile-and-simulate daemon.

    A {!t} owns the persistent result cache ({!Rcache}), an admission
    queue and a {!Muir_obs.Obs.t} telemetry handle, whose metrics
    registry is the one store of the daemon's counters: the [stats]
    request, the [metrics] request and the drain summary all read it.
    {!handle} is the whole request semantics as a pure-ish function —
    the socket loop ({!serve}), the drain path and the tests all go
    through it — and {!serve} is a select-based single-threaded loop
    that owns the Unix-domain socket ({!listen}): it accepts
    connections, reads length-prefixed frames ({!Proto}), answers
    [stats]/[metrics]/[shutdown] through {!handle} at once, admits
    [run] requests against the queue bound, and hands one queued
    request per iteration to {!handle} at its admission time.
    Admission control and rejections stay in the loop.

    {2 Evaluation}

    A batch's items are resolved to content keys
    ([muir-serve-v1|<source-digest>|<Config.key>] — see {!item_key}),
    deduplicated, answered from the cache where possible, and the
    remaining unique keys fanned out over the OCaml-5 domain pool
    ({!Muir_dse.Pool}), one worker call each, through the explorer's
    evaluation ({!Muir_dse.Eval}).  Each is compiled, built and
    optimized, and its optimized circuit digested
    ({!Muir_core.Graph.digest}).  Configurations often build the same
    circuit (a pass with nothing to transform leaves it as it was),
    and every report field except the stack label and the knobs is a
    function of the circuit, so a key whose digest the daemon's
    evaluation memo already holds is answered by
    {!Muir_trace.Report.relabel} of that circuit's report instead of
    being lowered, modeled and simulated: a fresh reply,
    byte-identical to the one its own simulation would give, counted
    in [muir_serve_reused_total].  Only successful simulations enter
    the memo, which lives in memory and shares the result cache's
    payload strings.  Keys of one batch that build the same new
    circuit are each simulated.  Workers only read the memo; results
    are folded into the cache and the memo by the coordinating domain
    only, once the pool has finished, so cache traffic is race-free by
    construction (the same discipline as the explorer).  Because run
    reports are deterministic, a cached answer is byte-identical to
    the fresh one it replays.

    {2 Replies}

    A report payload is text that {!Muir_trace.Json.to_string} printed
    — {!Muir_trace.Report.to_json} for fresh results, and disk entries
    are checked to parse at load ({!Rcache}).  An ok result carries it
    as [Json.Raw], so the reply splices the stored text instead of
    parsing and re-printing it; the bytes are the same, since printing
    a parsed report reproduces it.  Every reply is printed into the
    daemon's one reusable frame ({!Proto.write_response}).

    {2 Telemetry}

    Every counter, gauge and histogram lives in the handle's registry
    under the [muir_serve_*] naming convention and is updated by the
    coordinating domain only, with the handle's (injectable) clock —
    so two runs over the same batch with a fixed clock render
    byte-identical Prometheus expositions, and none of the existing
    response payloads change shape or bytes.  Per item the daemon
    makes {e exactly one} latency observation — into
    [muir_serve_item_seconds{cached="true"}] for cache hits and
    batch-local duplicates, [{cached="false"}] for fresh evaluations
    and failed items — so the two histograms' total count always
    equals [ok + errors] from the [stats] op.  Cache hits are counted
    where a probe, or a batch-local duplicate's replay, finds a
    payload; misses where a fresh payload is remembered; and the
    entries {!Rcache} discarded at load once, at {!create}.  Each
    fresh evaluation additionally records the seconds of each stage
    it ran into [muir_serve_stage_seconds{stage=...}] and pushes a
    span of those stages into the handle's ring for Chrome-trace
    export; a reused key ran compile, build and optimize only.

    {2 Failure containment}

    Everything that can go wrong inside an item — unknown workload or
    stack, a front-end error in inline source, a deadline expiring at
    a stage boundary, a simulator deadlock — becomes a structured
    per-item error in the response.  A cache entry that cannot be
    written to disk is counted in [muir_serve_cache_write_errors_total]
    and logged, and the item is answered from its result.  Nothing an
    item does terminates the daemon. *)

module Config = Muir_dse.Config
module Pipeline = Muir_pipeline.Pipeline
module W = Muir_workloads.Workloads
module Ob = Muir_obs.Obs
module M = Muir_obs.Metrics
module Olog = Muir_obs.Log
module Span = Muir_obs.Span
module J = Muir_trace.Json

(** The daemon's registered metric handles; one instance per {!t},
    created against the handle's registry so the exposition is stable
    from the first scrape (every family exists even at zero). *)
type mx = {
  x_requests : M.counter;
  x_items : M.counter;
  x_ok : M.counter;
  x_fresh : M.counter;
  x_cached : M.counter;
  x_reused : M.counter;
  x_errors : M.family;  (** [muir_serve_errors_total], a series per code *)
  x_queue_depth : M.gauge;
  x_uptime : M.gauge;
  x_draining : M.gauge;
  x_cache_hits : M.counter;
  x_cache_misses : M.counter;
  x_cache_corrupt : M.counter;
  x_cache_write_errors : M.counter;
  x_cache_entries : M.gauge;
  x_disk_bytes : M.gauge;
  x_item_fresh : M.hist;
  x_item_cached : M.hist;
  x_stage : M.hist array;  (** indexed by {!Pipeline.stage_index} *)
}

type t = {
  sv_rcache : Rcache.t;
  sv_memo : Muir_dse.Eval.memo;
      (** circuit digest -> what its simulation gave, the payload
          shared with [sv_rcache]; memory only *)
  sv_jobs : int;            (** evaluation domains per batch *)
  sv_queue_cap : int;       (** max queued items across requests *)
  sv_started : float;
  sv_queue : pending Queue.t;
  sv_stop : bool Atomic.t;  (** drain requested (signal or shutdown op) *)
  sv_obs : Ob.t;
  sv_mx : mx;
  sv_reply : Proto.reply_frame;  (** every reply is written through it *)
}

and pending = {
  pd_fd : Unix.file_descr;
  pd_items : Proto.item list;
  pd_admitted : float;
}

let errors_help = "Per-item errors by taxonomy code."
let rejects_help = "Request-level rejections by reason."

let make_mx (obs : Ob.t) : mx =
  let r = obs.Ob.o_metrics in
  (* Pre-register the rejects family too, so a scrape before the first
     rejection still exposes its TYPE line. *)
  ignore (M.family r ~kind:M.Counter ~help:rejects_help ~bounds:[||]
            "muir_serve_rejects_total");
  { x_requests =
      M.counter r ~help:"Run requests processed." "muir_serve_requests_total";
    x_items = M.counter r ~help:"Items received." "muir_serve_items_total";
    x_ok = M.counter r ~help:"Items answered ok." "muir_serve_ok_total";
    x_fresh =
      M.counter r ~help:"Items answered by fresh evaluation."
        "muir_serve_fresh_total";
    x_cached =
      M.counter r ~help:"Items answered from the result cache."
        "muir_serve_cached_total";
    x_reused =
      M.counter r
        ~help:
          "Fresh items answered from the evaluation of another key with \
           the same optimized circuit."
        "muir_serve_reused_total";
    x_errors =
      M.family r ~kind:M.Counter ~help:errors_help ~bounds:[||]
        "muir_serve_errors_total";
    x_queue_depth =
      M.gauge r ~help:"Items in the admission queue."
        "muir_serve_queue_depth";
    x_uptime =
      M.gauge r ~help:"Whole seconds since daemon start."
        "muir_serve_uptime_seconds";
    x_draining =
      M.gauge r ~help:"1 while draining, else 0." "muir_serve_draining";
    x_cache_hits =
      M.counter r ~help:"Result-cache hits." "muir_serve_cache_hits_total";
    x_cache_misses =
      M.counter r ~help:"Result-cache misses (fresh payloads recorded)."
        "muir_serve_cache_misses_total";
    x_cache_corrupt =
      M.counter r ~help:"Cache entries discarded as corrupt at load."
        "muir_serve_cache_corrupt_total";
    x_cache_write_errors =
      M.counter r ~help:"Result-cache entries that could not be written."
        "muir_serve_cache_write_errors_total";
    x_cache_entries =
      M.gauge r ~help:"Live result-cache entries." "muir_serve_cache_entries";
    x_disk_bytes =
      M.gauge r ~help:"On-disk bytes of live cache entries."
        "muir_serve_rcache_disk_bytes";
    x_item_fresh =
      M.histogram r ~help:"Per-item service latency."
        ~labels:[ ("cached", "false") ] "muir_serve_item_seconds";
    x_item_cached =
      M.histogram r ~help:"Per-item service latency."
        ~labels:[ ("cached", "true") ] "muir_serve_item_seconds";
    x_stage =
      Array.of_list
        (List.map
           (fun st ->
             M.histogram r ~help:"Per-stage seconds of fresh evaluations."
               ~labels:[ ("stage", Pipeline.stage_name st) ]
               "muir_serve_stage_seconds")
           Pipeline.stages) }

let err_counter (t : t) (code : string) : M.counter =
  M.counter t.sv_obs.Ob.o_metrics ~help:errors_help
    ~labels:[ ("code", code) ] "muir_serve_errors_total"

let reject_counter (t : t) (code : string) : M.counter =
  M.counter t.sv_obs.Ob.o_metrics ~help:rejects_help
    ~labels:[ ("code", code) ] "muir_serve_rejects_total"

let create ?cache_dir ?(jobs = 1) ?(queue_cap = 256) ?obs () : t =
  let obs = match obs with Some o -> o | None -> Ob.create () in
  let rcache = Rcache.create ?dir:cache_dir () in
  let mx = make_mx obs in
  M.add mx.x_cache_corrupt rcache.Rcache.rc_corrupt;
  { sv_rcache = rcache;
    sv_memo = Muir_dse.Eval.memo ();
    sv_jobs = max 1 jobs;
    sv_queue_cap = queue_cap;
    sv_started = Ob.now obs;
    sv_queue = Queue.create ();
    sv_stop = Atomic.make false;
    sv_obs = obs;
    sv_mx = mx;
    sv_reply = Proto.reply_frame () }

(** Ask the serve loop to stop accepting work and drain what it has.
    Safe to call from a signal handler. *)
let request_drain (t : t) : unit = Atomic.set t.sv_stop true

let queue_depth (t : t) : int =
  Queue.fold (fun n p -> n + List.length p.pd_items) 0 t.sv_queue

(* ------------------------------------------------------------------ *)
(* Content keys                                                        *)

(** The cache key of one item: a protocol-versioned digest of the
    {e source} (workload text or inline text — so editing a bundled
    workload invalidates its entries) crossed with the configuration's
    content key.  [jobs] and [deadline_ms] are deliberately excluded:
    [jobs] is ignored, and a deadline changes when an answer arrives,
    never what it is. *)
let item_key (src : Proto.src) (cfg : Config.t) : string =
  let sd =
    match src with
    | Proto.Workload name ->
      let w = W.find name in
      Fmt.str "workload:%s:%s" name (Digest.to_hex (Digest.string w.source))
    | Proto.Inline { name; text } ->
      Fmt.str "inline:%s"
        (Digest.to_hex (Digest.string (name ^ "\x00" ^ text)))
  in
  Fmt.str "muir-serve-v1|%s|%s" sd (Config.key cfg)

(** The μopt configuration an item denotes: its stack's registry
    defaults, overridden by any explicit knobs.
    @raise Invalid_argument for unknown stacks *)
let item_config (it : Proto.item) : Config.t =
  let base = Config.predefined it.it_stack in
  Config.v
    ~tiles:(Option.value ~default:base.tiles it.it_tiles)
    ~banks:(Option.value ~default:base.banks it.it_banks)
    ~off:it.it_off it.it_stack

(** Display label of an item: what its span and log records carry. *)
let item_label (it : Proto.item) : string =
  let src =
    match it.it_src with
    | Proto.Workload w -> w
    | Proto.Inline { name; _ } -> name
  in
  src ^ "/" ^ it.it_stack

(* ------------------------------------------------------------------ *)
(* Item evaluation (worker side)                                       *)

type outcome =
  | Payload of string                          (** report JSON *)
  | Failed of string * string option * string  (** code, stage, msg *)

(** One worker-side evaluation ({!Muir_dse.Eval}), every failure mode
    folded into a structured {!outcome}: a digest the daemon's [memo]
    holds is answered by relabelling that circuit's report.  Only the
    coordinator writes the memo, after the pool has finished; the stage
    timing arrays ride back for it to merge. *)
type wres = {
  w_out : outcome;
  w_fresh : (string * Muir_dse.Eval.entry) option;  (** simulated here *)
  w_relabel : float option;
      (** seconds spent relabelling another key's report, when reused *)
  w_secs : float array;
  w_counts : int array;
}

let eval_item ?(now = Unix.gettimeofday) ~(memo : Muir_dse.Eval.memo)
    ~(deadline : float option) (it : Proto.item) (cfg : Config.t) : wres =
  let ctl = Pipeline.ctl ?deadline ~now () in
  let fresh = ref None and relabel = ref None in
  let out =
    try
      let src =
        match it.it_src with
        | Proto.Workload name -> Pipeline.of_workload_name name
        | Proto.Inline { name; text } -> Pipeline.of_text ~name text
      in
      let p = Muir_dse.Eval.prepare ~ctl ~memo src cfg in
      match p.pr_step with
      | Known e ->
        let t0 = now () in
        let r =
          Muir_trace.Report.relabel ~stack:(Config.label cfg)
            ~knobs:(Config.knobs cfg) e.en_payload
        in
        relabel := Some (now () -. t0);
        Payload r
      | Modeled _ ->
        let e = Muir_dse.Eval.finish p in
        fresh := Some (p.pr_digest, e);
        Payload e.en_payload
    with
    | Pipeline.Deadline st ->
      Failed
        ( "deadline", Some (Pipeline.stage_name st),
          Fmt.str "deadline expired before the %s stage"
            (Pipeline.stage_name st) )
    | Muir_sim.Sim.Deadlock m -> Failed ("deadlock", Some "simulate", m)
    | Muir_sim.Sim.Cycle_limit n ->
      Failed
        ("cycle_limit", Some "simulate", Fmt.str "no progress by cycle %d" n)
    | Invalid_argument m -> Failed ("bad_request", None, m)
    | e -> (
      match Muir_frontend.Frontend.describe_error e with
      | Some m -> Failed ("compile_error", Some "compile", m)
      | None -> Failed ("internal", None, Printexc.to_string e))
  in
  { w_out = out; w_fresh = !fresh; w_relabel = !relabel;
    w_secs = ctl.stage_seconds; w_counts = ctl.stage_counts }

(* ------------------------------------------------------------------ *)
(* Batch processing (coordinator side)                                 *)

type resolved =
  | Ready of { rv_key : string; rv_cfg : Config.t }
  | Unresolvable of string  (** message; code is always bad_request *)

(* [item_key] builds the item's passes, so an unknown stack and a tile
   or bank count out of range both fail here. *)
let resolve (it : Proto.item) : resolved =
  match
    let cfg = item_config it in
    (item_key it.it_src cfg, cfg)
  with
  | key, cfg -> Ready { rv_key = key; rv_cfg = cfg }
  | exception Invalid_argument m -> Unresolvable m

(** Exactly one latency observation per item (see the module header):
    the invariant the CI smoke reconciles against [stats]. *)
let observe_item (t : t) ~(cached : bool) (secs : float) : unit =
  M.observe
    (if cached then t.sv_mx.x_item_cached else t.sv_mx.x_item_fresh)
    secs

(** Add a fresh payload to the result cache, counted as a cache miss.
    A disk write that fails is counted and logged, not raised: the
    entry is in memory, so the item and later requests for its key are
    still answered. *)
let remember (t : t) (key : string) (payload : string) : unit =
  M.inc t.sv_mx.x_cache_misses;
  try Rcache.add t.sv_rcache key payload
  with Rcache.Write_error (path, reason) ->
    M.inc t.sv_mx.x_cache_write_errors;
    Olog.event t.sv_obs.Ob.o_log ~level:Olog.Warn "cache_write_error"
      [ ("path", J.Str path); ("reason", J.Str reason) ]

(** Process one admitted [run] request: dedupe by key, answer from the
    cache, evaluate the remaining unique keys on the pool, fold fresh
    results (and stage timings) and newly simulated circuits back, and
    assemble per-item results in request order. *)
let run_items ~(now : float) (t : t) (items : Proto.item list) :
    Proto.response =
  let clock () = Ob.now t.sv_obs in
  let req_id = Ob.span_id t.sv_obs in
  M.inc t.sv_mx.x_requests;
  M.add t.sv_mx.x_items (List.length items);
  Olog.event t.sv_obs.Ob.o_log "request"
    [ ("req", J.Int req_id); ("items", J.Int (List.length items)) ];
  let resolved = List.map (fun it -> (it, resolve it)) items in
  (* First pass: probe the cache, timing each probe on the obs clock;
     a probe that finds a payload is a cache hit. *)
  let probed =
    List.map
      (fun (it, rv) ->
        let t0 = clock () in
        let what =
          match rv with
          | Unresolvable m -> `Bad m
          | Ready { rv_key = key; rv_cfg = cfg } -> (
            match Rcache.find t.sv_rcache key with
            | Some payload ->
              M.inc t.sv_mx.x_cache_hits;
              `Hit (key, payload)
            | None -> `Miss (key, cfg))
        in
        (it, what, clock () -. t0))
      resolved
  in
  (* Each uncached key gets exactly one evaluation; the other items with
     that key answer from its result. The representative must be the
     least deadline-constrained item of the group — a dup replays the
     representative's outcome, so an aggressive deadline on one copy
     must not fail the unconstrained copies. Among equally constrained
     copies the first stays the representative. *)
  let reps : (string, Proto.item) Hashtbl.t = Hashtbl.create 16 in
  let looser a b =
    match (a, b) with
    | _, None -> false
    | None, Some _ -> true
    | Some x, Some y -> x > y
  in
  List.iter
    (fun ((it : Proto.item), what, _) ->
      match what with
      | `Miss (key, _) -> (
        match Hashtbl.find_opt reps key with
        | Some (prev : Proto.item)
          when not (looser it.it_deadline_ms prev.it_deadline_ms) ->
          ()
        | _ -> Hashtbl.replace reps key it)
      | _ -> ())
    probed;
  let plan =
    List.map
      (fun ((it : Proto.item), what, dt) ->
        match what with
        | (`Bad _ | `Hit _) as w -> (it, w, dt)
        | `Miss (key, cfg) ->
          if Hashtbl.find reps key == it then (it, `Fresh (key, cfg), dt)
          else (it, `Dup key, dt))
      probed
  in
  let fresh =
    List.filter_map
      (function
        | it, `Fresh (key, cfg), _ ->
          let deadline =
            Option.map
              (fun ms -> now +. (float_of_int ms /. 1000.0))
              it.Proto.it_deadline_ms
          in
          Some (key, it, cfg, deadline)
        | _ -> None)
      plan
  in
  let eval_started = clock () in
  let results =
    Muir_dse.Pool.map ~jobs:t.sv_jobs
      (fun (_, it, cfg, deadline) ->
        eval_item ~now:clock ~memo:t.sv_memo ~deadline it cfg)
      fresh
  in
  (* Fold fresh results into the cache, the memo, the stage
     histograms and the span ring — coordinator only, same discipline
     as the explorer. *)
  let by_key = Hashtbl.create 16 in
  List.iter2
    (fun (key, it, _, _) (w : wres) ->
      let stages =
        List.filter_map
          (fun st ->
            let i = Pipeline.stage_index st in
            if w.w_counts.(i) > 0 then begin
              M.observe t.sv_mx.x_stage.(i) w.w_secs.(i);
              Some (Pipeline.stage_name st, w.w_secs.(i))
            end
            else None)
          Pipeline.stages
      in
      let segs, dur = Span.layout stages in
      Span.push t.sv_obs.Ob.o_spans
        { Span.sp_id = Ob.span_id t.sv_obs; sp_name = item_label it;
          sp_cat = "serve.item"; sp_start = eval_started; sp_dur = dur;
          sp_segs = segs };
      (match w.w_out with Payload p -> remember t key p | Failed _ -> ());
      Option.iter (fun (d, e) -> Muir_dse.Eval.add t.sv_memo d e) w.w_fresh;
      let relabel_secs = Option.value w.w_relabel ~default:0.0 in
      Hashtbl.replace by_key key
        (w.w_out, dur +. relabel_secs, Option.is_some w.w_relabel))
    fresh results;
  (* Second pass: per-item results in request order; ok results splice
     the report payload verbatim (see the module header). *)
  let fresh_n = ref 0 and cached_n = ref 0 and err_n = ref 0 in
  let ok ~cached payload =
    M.inc t.sv_mx.x_ok;
    M.inc (if cached then t.sv_mx.x_cached else t.sv_mx.x_fresh);
    incr (if cached then cached_n else fresh_n);
    Proto.Ok_ { cached; report = J.Raw payload }
  in
  let err code stage msg =
    M.inc (err_counter t code);
    incr err_n;
    Proto.Err { code; stage; msg }
  in
  let log_item (it : Proto.item) ~status ~cached ?(reused = false) ~secs
      extra =
    Olog.event t.sv_obs.Ob.o_log "evaluate"
      ([ ("req", J.Int req_id); ("id", J.Int it.Proto.it_id);
         ("item", J.Str (item_label it)); ("status", J.Str status);
         ("cached", J.Bool cached); ("reused", J.Bool reused);
         ("secs", J.Float secs) ]
      @ extra)
  in
  let rs =
    List.map
      (fun ((it : Proto.item), what, probe_dt) ->
        let outcome =
          match what with
          | `Bad m ->
            observe_item t ~cached:false probe_dt;
            log_item it ~status:"error" ~cached:false ~secs:probe_dt
              [ ("code", J.Str "bad_request") ];
            err "bad_request" None m
          | `Hit (_, payload) ->
            observe_item t ~cached:true probe_dt;
            log_item it ~status:"ok" ~cached:true ~secs:probe_dt [];
            ok ~cached:true payload
          | `Fresh (key, _) -> (
            let out, dur, reused = Hashtbl.find by_key key in
            let secs = probe_dt +. dur in
            observe_item t ~cached:false secs;
            match out with
            | Payload p ->
              if reused then M.inc t.sv_mx.x_reused;
              log_item it ~status:"ok" ~cached:false ~reused ~secs [];
              ok ~cached:false p
            | Failed (code, stage, msg) ->
              log_item it ~status:"error" ~cached:false ~reused ~secs
                [ ("code", J.Str code) ];
              err code stage msg)
          | `Dup key -> (
            (* The representative ran in this very batch: replay its
               outcome; a payload counts as a cache hit. *)
            let out, _, _ = Hashtbl.find by_key key in
            observe_item t ~cached:true probe_dt;
            match out with
            | Payload p ->
              M.inc t.sv_mx.x_cache_hits;
              log_item it ~status:"ok" ~cached:true ~secs:probe_dt [];
              ok ~cached:true p
            | Failed (code, stage, msg) ->
              log_item it ~status:"error" ~cached:true ~secs:probe_dt
                [ ("code", J.Str code) ];
              err code stage msg)
        in
        { Proto.rs_id = it.it_id; rs_outcome = outcome })
      plan
  in
  Olog.event t.sv_obs.Ob.o_log "respond"
    [ ("req", J.Int req_id); ("ok", J.Int (!fresh_n + !cached_n));
      ("fresh", J.Int !fresh_n); ("cached", J.Int !cached_n);
      ("errors", J.Int !err_n) ];
  Proto.Results
    { results = rs; fresh = !fresh_n; cached = !cached_n; errors = !err_n }

(** Failed items: the sum of [muir_serve_errors_total] over its codes. *)
let errors (t : t) : int =
  List.fold_left
    (fun n (s : M.series) ->
      match s.sr_value with M.VCounter c -> n + M.counter_value c | _ -> n)
    0 t.sv_mx.x_errors.f_series

let stats_response ?now (t : t) : Proto.response =
  let now = match now with Some n -> n | None -> Ob.now t.sv_obs in
  let cs = Rcache.stats t.sv_rcache in
  let mx = t.sv_mx in
  Proto.Stats_r
    { st_uptime_s = now -. t.sv_started;
      st_queue_depth = queue_depth t;
      st_draining = Atomic.get t.sv_stop;
      st_requests = M.counter_value mx.x_requests;
      st_items = M.counter_value mx.x_items;
      st_ok = M.counter_value mx.x_ok;
      st_errors = errors t;
      st_fresh = M.counter_value mx.x_fresh;
      st_cached = M.counter_value mx.x_cached;
      st_reused = M.counter_value mx.x_reused;
      st_cache_hits = M.counter_value mx.x_cache_hits;
      st_cache_misses = M.counter_value mx.x_cache_misses;
      st_cache_entries = cs.entries;
      st_cache_corrupt = M.counter_value mx.x_cache_corrupt;
      st_cache_disk_bytes = cs.disk_bytes;
      st_stages =
        List.map
          (fun st ->
            let h = mx.x_stage.(Pipeline.stage_index st) in
            { Proto.tg_stage = Pipeline.stage_name st;
              tg_count = M.hist_count h;
              tg_seconds = M.hist_sum h })
          Pipeline.stages }

(** Refresh the scrape-time gauges (uptime, queue depth, cache state)
    and render the registry as Prometheus text. *)
let render_metrics ?now (t : t) : string =
  let now = match now with Some n -> n | None -> Ob.now t.sv_obs in
  let cs = Rcache.stats t.sv_rcache in
  M.set t.sv_mx.x_uptime (int_of_float (now -. t.sv_started));
  M.set t.sv_mx.x_queue_depth (queue_depth t);
  M.set t.sv_mx.x_draining (if Atomic.get t.sv_stop then 1 else 0);
  M.set t.sv_mx.x_cache_entries cs.entries;
  M.set t.sv_mx.x_disk_bytes cs.disk_bytes;
  Muir_obs.Prom.render t.sv_obs.Ob.o_metrics

(** The whole request semantics, synchronously: what {!serve} answers
    after queueing, and what tests call directly.  [now] is the
    admission time (defaults to the handle's clock). *)
let handle ?now (t : t) (req : Proto.request) : Proto.response =
  let now = match now with Some n -> n | None -> Ob.now t.sv_obs in
  match req with
  | Proto.Run items -> run_items ~now t items
  | Proto.Stats -> stats_response ~now t
  | Proto.Metrics -> Proto.Metrics_r (render_metrics ~now t)
  | Proto.Shutdown ->
    request_drain t;
    Proto.Bye

(* ------------------------------------------------------------------ *)
(* The socket loop                                                     *)

let send (t : t) (fd : Unix.file_descr) (resp : Proto.response) : bool =
  match Proto.write_response t.sv_reply fd resp with
  | () -> true
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

type drain_summary = {
  dr_requests : int;
  dr_ok : int;
  dr_errors : int;
  dr_fresh : int;
  dr_cached : int;
}

(** Atomic snapshot write ({!Rcache.write_atomic}).  A metrics or trace
    file is a side channel, so a failed write is logged, not raised. *)
let write_snapshot (t : t) (path : string) (contents : string) : unit =
  try Rcache.write_atomic path [ contents ]
  with Rcache.Write_error (path, reason) ->
    Olog.event t.sv_obs.Ob.o_log ~level:Olog.Warn "snapshot_error"
      [ ("path", J.Str path); ("reason", J.Str reason) ]

(** A Unix-domain socket that is bound and listening. *)
type listener = { ln_fd : Unix.file_descr; ln_path : string }

(** Bind [path] (an existing file there is replaced) and listen on it.
    A daemon binds before it announces itself, so a path it cannot
    bind fails before anything listens.
    @raise Unix.Unix_error when [path] cannot be bound *)
let listen (path : string) : listener =
  if Sys.file_exists path then Unix.unlink path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 16
   with e ->
     Unix.close fd;
     raise e);
  { ln_fd = fd; ln_path = path }

(** Seconds between two [?metrics_file] snapshots. *)
let metrics_interval = 2.0

(** Serve on [ln] until a drain is requested — by {!request_drain} (the
    signal path) or a [shutdown] request.  Draining stops accepting
    connections and admissions, answers every already-admitted request,
    then closes everything and removes the socket file.

    [?metrics_file] keeps an atomically replaced Prometheus snapshot
    current (every [metrics_interval] seconds and once at drain) for
    sidecar scrapers that cannot speak the socket protocol;
    [?trace_file] writes the retained request spans as Chrome trace
    events at drain. *)
let serve ?(max_frame = Proto.default_max_frame) ?metrics_file ?trace_file
    (ln : listener) (t : t) : drain_summary =
  (* A peer that disconnects mid-response must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let lfd = ln.ln_fd and socket = ln.ln_path in
  let log = t.sv_obs.Ob.o_log in
  Olog.event log "listen"
    [ ("socket", J.Str socket); ("jobs", J.Int t.sv_jobs);
      ("queue_cap", J.Int t.sv_queue_cap) ];
  let clients = ref [] in
  let client_ids : (Unix.file_descr, int) Hashtbl.t = Hashtbl.create 8 in
  let next_client = ref 0 in
  let client_id fd =
    match Hashtbl.find_opt client_ids fd with Some i -> i | None -> -1
  in
  let close_client fd =
    Olog.event log "disconnect" [ ("client", J.Int (client_id fd)) ];
    Hashtbl.remove client_ids fd;
    clients := List.filter (fun c -> c <> fd) !clients;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let drop_pending fd =
    (* A request whose client vanished still gets evaluated during
       drain only if its fd is alive; otherwise it is discarded. *)
    let keep = Queue.create () in
    Queue.iter (fun p -> if p.pd_fd <> fd then Queue.add p keep) t.sv_queue;
    Queue.clear t.sv_queue;
    Queue.transfer keep t.sv_queue
  in
  let reject fd code msg =
    M.inc (reject_counter t code);
    Olog.event log ~level:Olog.Warn "reject"
      [ ("client", J.Int (client_id fd)); ("code", J.Str code);
        ("msg", J.Str msg) ];
    ignore (send t fd (Proto.Error_r { code; msg }))
  in
  let on_frame fd payload =
    match Proto.request_of_string payload with
    | exception Proto.Bad_request m -> reject fd "bad_request" m
    | (Proto.Stats | Proto.Metrics | Proto.Shutdown) as req ->
      ignore (send t fd (handle t req))
    | Proto.Run items ->
      if Atomic.get t.sv_stop then reject fd "draining" "daemon is draining"
      else if queue_depth t + List.length items > t.sv_queue_cap then
        reject fd "overloaded"
          (Fmt.str
             "admission queue full (%d queued + %d requested > cap %d)"
             (queue_depth t) (List.length items) t.sv_queue_cap)
      else begin
        Olog.event log "admit"
          [ ("client", J.Int (client_id fd));
            ("items", J.Int (List.length items));
            ("queue_depth", J.Int (queue_depth t + List.length items)) ];
        Queue.add
          { pd_fd = fd; pd_items = items; pd_admitted = Ob.now t.sv_obs }
          t.sv_queue
      end
  in
  let read_from fd =
    match Proto.read_frame ~max_frame fd with
    | None ->
      drop_pending fd;
      close_client fd
    | Some payload -> on_frame fd payload
    | exception Proto.Oversize n ->
      (* The header is sound even when the payload is not worth
         reading; answer, then close — the stream is unsynchronized. *)
      reject fd "oversize"
        (Fmt.str "frame of %d bytes exceeds cap %d" n max_frame);
      drop_pending fd;
      close_client fd
    | exception Proto.Frame_error _ ->
      drop_pending fd;
      close_client fd
    | exception Unix.Unix_error _ ->
      drop_pending fd;
      close_client fd
  in
  let process_one () =
    match Queue.take_opt t.sv_queue with
    | None -> ()
    | Some p ->
      let resp = handle ~now:p.pd_admitted t (Proto.Run p.pd_items) in
      if not (send t p.pd_fd resp) then close_client p.pd_fd
  in
  let snapshot () =
    match metrics_file with
    | None -> ()
    | Some path -> write_snapshot t path (render_metrics t)
  in
  let last_snap = ref (Ob.now t.sv_obs) in
  let maybe_snapshot () =
    if metrics_file <> None then begin
      let now = Ob.now t.sv_obs in
      if now -. !last_snap >= metrics_interval then begin
        last_snap := now;
        snapshot ()
      end
    end
  in
  let draining () = Atomic.get t.sv_stop in
  while not (draining ()) do
    match Unix.select (lfd :: !clients) [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if fd = lfd then (
            match Unix.accept lfd with
            | cfd, _ ->
              Hashtbl.replace client_ids cfd !next_client;
              Olog.event log "accept" [ ("client", J.Int !next_client) ];
              incr next_client;
              clients := cfd :: !clients
            | exception Unix.Unix_error _ -> ())
          else read_from fd)
        readable;
      process_one ();
      maybe_snapshot ()
  done;
  (* Drain: no new connections or admissions; answer the queue. *)
  Olog.event log "drain" [ ("queued_items", J.Int (queue_depth t)) ];
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  while not (Queue.is_empty t.sv_queue) do
    process_one ()
  done;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    !clients;
  (try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ());
  snapshot ();
  (match trace_file with
  | None -> ()
  | Some path ->
    write_snapshot t path (Span.chrome (Span.items t.sv_obs.Ob.o_spans)));
  let count = M.counter_value in
  let s =
    { dr_requests = count t.sv_mx.x_requests; dr_ok = count t.sv_mx.x_ok;
      dr_errors = errors t; dr_fresh = count t.sv_mx.x_fresh;
      dr_cached = count t.sv_mx.x_cached }
  in
  Olog.event log "stopped"
    [ ("requests", J.Int s.dr_requests); ("ok", J.Int s.dr_ok);
      ("errors", J.Int s.dr_errors) ];
  s
