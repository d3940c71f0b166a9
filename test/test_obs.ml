(* Tests for the telemetry subsystem: histogram bucket-boundary
   exactness, registry find-or-create identity and conflict rejection,
   label canonicalization, Prometheus text round-trip through the
   strict parser (hostile label values included), the parser's
   rejection cases, quantile interpolation, the structured-log record
   schema against a golden transcript, span layout / ring bounds /
   Chrome-trace export, and byte-identical explorer expositions across
   --jobs under the coordinator-only rule. *)

module M = Muir_obs.Metrics
module Prom = Muir_obs.Prom
module Log = Muir_obs.Log
module Span = Muir_obs.Span
module Obs = Muir_obs.Obs
module J = Muir_trace.Json
module Dse = Muir_dse.Explore
module Config = Muir_dse.Config

let expect_invalid (label : string) (f : unit -> 'a) : unit =
  match f () with
  | _ -> Alcotest.fail (label ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

(* --- histogram bucket boundaries ------------------------------------- *)

let test_bucket_boundaries () =
  let r = M.create () in
  let h = M.histogram r ~buckets:[| 1.0; 2.0; 5.0 |] "t_lat_seconds" in
  (* Bounds are inclusive upper limits: a value exactly on a bound
     lands in that bucket, the next representable float in the one
     above. *)
  M.observe h 1.0;
  M.observe h (Float.succ 1.0);
  M.observe h 2.0;
  M.observe h 5.0;
  M.observe h 6.0;
  M.observe h 0.0;
  Alcotest.(check int) "total observations" 6 (M.hist_count h);
  Alcotest.(check (array int)) "cumulative counts exact"
    [| 2; 4; 5; 6 |] (M.cumulative h);
  Alcotest.(check bool) "sum accumulates" true
    (Float.abs (M.hist_sum h -. (1.0 +. Float.succ 1.0 +. 13.0)) < 1e-9);
  (* Exact integers survive the render: cumulative bucket values are
     printed as integers, never floats. *)
  let text = Prom.render r in
  Alcotest.(check bool) "bucket value rendered as integer" true
    (let p = Prom.parse text in
     match Prom.find_histogram p ~name:"t_lat_seconds" () with
     | Some hd -> hd.Prom.hd_cum = [| 2; 4; 5; 6 |] && hd.Prom.hd_count = 6
     | None -> false)

(* --- registry identity and conflicts --------------------------------- *)

let test_registry_identity () =
  let r = M.create () in
  let a = M.counter r "t_reqs_total" in
  M.inc a;
  (* find-or-create: the second ask is the same instance *)
  let b = M.counter r "t_reqs_total" in
  M.inc b;
  Alcotest.(check int) "same series instance" 2 (M.counter_value a);
  (* label order never matters; duplicates and "le" are rejected *)
  let c1 = M.counter r ~labels:[ ("b", "2"); ("a", "1") ] "t_lab_total" in
  let c2 = M.counter r ~labels:[ ("a", "1"); ("b", "2") ] "t_lab_total" in
  M.inc c1;
  Alcotest.(check int) "labels canonicalized" 1 (M.counter_value c2);
  expect_invalid "duplicate label" (fun () ->
      M.counter r ~labels:[ ("a", "1"); ("a", "2") ] "t_lab_total");
  expect_invalid "reserved le label" (fun () ->
      M.counter r ~labels:[ ("le", "1") ] "t_lab_total");
  expect_invalid "invalid label name" (fun () ->
      M.counter r ~labels:[ ("9x", "1") ] "t_lab_total");
  (* kind/help/bucket conflicts are programming errors *)
  expect_invalid "kind conflict" (fun () -> M.gauge r "t_reqs_total");
  expect_invalid "help conflict" (fun () ->
      M.counter r ~help:"different" "t_reqs_total");
  let _ = M.histogram r ~buckets:[| 1.0; 2.0 |] "t_h_seconds" in
  expect_invalid "bucket conflict" (fun () ->
      M.histogram r ~buckets:[| 1.0; 3.0 |] "t_h_seconds");
  expect_invalid "buckets not increasing" (fun () ->
      M.histogram r ~buckets:[| 1.0; 1.0 |] "t_h2_seconds");
  expect_invalid "non-finite bucket" (fun () ->
      M.histogram r ~buckets:[| Float.infinity |] "t_h3_seconds");
  expect_invalid "invalid metric name" (fun () -> M.counter r "1bad");
  (* counters are monotonic *)
  expect_invalid "negative add" (fun () -> M.add a (-1));
  (* gauges are not *)
  let g = M.gauge r "t_depth" in
  M.set g 5;
  M.set g (-3);
  Alcotest.(check int) "gauge goes negative" (-3) (M.gauge_value g)

(* --- quantile interpolation ------------------------------------------ *)

let test_quantiles () =
  let r = M.create () in
  let h = M.histogram r ~buckets:[| 1.0; 2.0; 4.0 |] "t_q_seconds" in
  Alcotest.(check (float 1e-9)) "empty histogram answers 0" 0.0
    (M.quantile h 0.5);
  for _ = 1 to 100 do M.observe h 0.5 done;
  (* all mass in (0, 1]: linear interpolation inside the bucket *)
  Alcotest.(check (float 1e-9)) "median interpolates" 0.5 (M.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p100 is the bound" 1.0 (M.quantile h 1.0);
  (* +Inf observations clamp to the highest finite bound *)
  let r2 = M.create () in
  let h2 = M.histogram r2 ~buckets:[| 1.0; 2.0; 4.0 |] "t_q_seconds" in
  M.observe h2 10.0;
  M.observe h2 11.0;
  M.observe h2 12.0;
  Alcotest.(check (float 1e-9)) "overflow clamps to top bound" 4.0
    (M.quantile h2 0.5)

(* --- Prometheus round trip ------------------------------------------- *)

let hostile = "we\"ird\\va\nlue"

let test_prom_roundtrip () =
  let r = M.create () in
  let c =
    M.counter r ~help:"Total requests." ~labels:[ ("path", hostile) ]
      "t_requests_total"
  in
  M.add c 42;
  let g = M.gauge r ~help:"Queue depth." "t_depth" in
  M.set g (-3);
  let h =
    M.histogram r ~help:"Latency." ~buckets:[| 0.1; 1.0 |]
      ~labels:[ ("kind", "x") ] "t_lat_seconds"
  in
  M.observe h 0.05;
  M.observe h 0.5;
  M.observe h 2.0;
  let text = Prom.render r in
  let p = Prom.parse text in
  Alcotest.(check (option (float 1e-9))) "hostile label value round-trips"
    (Some 42.0)
    (Prom.find_sample p ~name:"t_requests_total"
       ~labels:[ ("path", hostile) ] ());
  Alcotest.(check (option (float 1e-9))) "negative gauge" (Some (-3.0))
    (Prom.find_sample p ~name:"t_depth" ());
  (match Prom.find_histogram p ~name:"t_lat_seconds"
           ~labels:[ ("kind", "x") ] ()
   with
  | Some hd ->
    Alcotest.(check (array (float 1e-9))) "bounds" [| 0.1; 1.0 |]
      hd.Prom.hd_bounds;
    Alcotest.(check (array int)) "cumulative" [| 1; 2; 3 |] hd.Prom.hd_cum;
    Alcotest.(check int) "count" 3 hd.Prom.hd_count;
    Alcotest.(check (float 1e-9)) "sum" 2.55 hd.Prom.hd_sum
  | None -> Alcotest.fail "histogram series not found");
  (* TYPE lines present and correctly kinded *)
  Alcotest.(check (option string)) "counter typed" (Some "counter")
    (List.assoc_opt "t_requests_total" p.Prom.p_types);
  Alcotest.(check (option string)) "histogram typed" (Some "histogram")
    (List.assoc_opt "t_lat_seconds" p.Prom.p_types)

let test_render_deterministic () =
  (* Two registries with the same contents registered in opposite
     orders render byte-identically. *)
  let build order =
    let r = M.create () in
    List.iter
      (fun which ->
        match which with
        | `C -> M.add (M.counter r ~help:"c" "t_zz_total") 7
        | `G -> M.set (M.gauge r ~help:"g" "t_aa_depth") 4
        | `H1 ->
          M.observe
            (M.histogram r ~buckets:[| 1.0 |] ~labels:[ ("k", "b") ]
               ~help:"h" "t_mm_seconds")
            0.5
        | `H2 ->
          M.observe
            (M.histogram r ~buckets:[| 1.0 |] ~labels:[ ("k", "a") ]
               ~help:"h" "t_mm_seconds")
            0.5)
      order;
    Prom.render r
  in
  Alcotest.(check string) "registration order invisible"
    (build [ `C; `G; `H1; `H2 ])
    (build [ `H2; `H1; `G; `C ])

let test_parser_rejects () =
  let reject label text =
    match Prom.parse text with
    | _ -> Alcotest.fail (label ^ ": accepted a malformed exposition")
    | exception Prom.Invalid _ -> ()
  in
  reject "sample without TYPE" "t_x 1\n";
  reject "duplicate TYPE" "# TYPE t_x counter\n# TYPE t_x counter\nt_x 1\n";
  reject "duplicate sample" "# TYPE t_x counter\nt_x 1\nt_x 1\n";
  reject "two spaces before value" "# TYPE t_x counter\nt_x  1\n";
  reject "two value tokens" "# TYPE t_x counter\nt_x 1 2\n";
  reject "missing value" "# TYPE t_x counter\nt_x \n";
  reject "bad escape" "# TYPE t_x counter\nt_x{l=\"\\q\"} 1\n";
  reject "unterminated labels" "# TYPE t_x counter\nt_x{l=\"v\" 1\n";
  reject "duplicate label"
    "# TYPE t_x counter\nt_x{l=\"a\",l=\"b\"} 1\n";
  reject "unknown kind" "# TYPE t_x flavor\nt_x 1\n";
  reject "invalid family name" "# TYPE 9bad counter\n";
  reject "HELP after TYPE" "# TYPE t_x counter\n# HELP t_x late\nt_x 1\n";
  reject "malformed comment" "# bogus comment here\n";
  reject "bare hash comment" "#bare\n";
  reject "histogram without +Inf"
    "# TYPE t_x histogram\nt_x_bucket{le=\"1\"} 1\nt_x_sum 1\nt_x_count 1\n";
  reject "histogram count mismatch"
    "# TYPE t_x histogram\nt_x_bucket{le=\"+Inf\"} 2\nt_x_sum 1\nt_x_count 1\n";
  reject "histogram buckets decrease"
    "# TYPE t_x histogram\nt_x_bucket{le=\"1\"} 2\n\
     t_x_bucket{le=\"+Inf\"} 2\nt_x_sum 1\nt_x_count 2\n\
     t_x_bucket{le=\"0.5\"} 3\n";
  reject "histogram missing _sum"
    "# TYPE t_x histogram\nt_x_bucket{le=\"+Inf\"} 1\nt_x_count 1\n";
  (* ... and a well-formed empty exposition is fine *)
  match Prom.parse "" with
  | p -> Alcotest.(check int) "empty ok" 0 (List.length p.Prom.p_samples)
  | exception Prom.Invalid m -> Alcotest.fail ("empty rejected: " ^ m)

(* --- structured log schema (golden) ---------------------------------- *)

let test_log_golden () =
  let c = ref 0.0 in
  let clock () =
    c := !c +. 0.5;
    !c
  in
  let buf = Buffer.create 256 in
  let log =
    Log.create ~clock (fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
  in
  Log.event log "accept" [ ("client", J.Int 0) ];
  Log.event log ~level:Log.Warn "reject"
    [ ("code", J.Str "overloaded"); ("queue_depth", J.Int 7) ];
  Log.event log ~level:Log.Error "boom" [ ("msg", J.Str "a\"b") ];
  let golden =
    "{\"seq\":0,\"ts\":0.5,\"level\":\"info\",\"event\":\"accept\",\
     \"client\":0}\n\
     {\"seq\":1,\"ts\":1,\"level\":\"warn\",\"event\":\"reject\",\
     \"code\":\"overloaded\",\"queue_depth\":7}\n\
     {\"seq\":2,\"ts\":1.5,\"level\":\"error\",\"event\":\"boom\",\
     \"msg\":\"a\\\"b\"}\n"
  in
  Alcotest.(check string) "log transcript byte-identical" golden
    (Buffer.contents buf);
  (* Every line is strict JSON with the fixed header fields. *)
  List.iteri
    (fun i line ->
      if line <> "" then begin
        let v = J.parse line in
        Alcotest.(check (option int))
          (Fmt.str "line %d seq" i)
          (Some i)
          (Option.map J.to_int_exn (J.member "seq" v));
        Alcotest.(check bool)
          (Fmt.str "line %d has level/event" i)
          true
          (J.member "level" v <> None && J.member "event" v <> None)
      end)
    (String.split_on_char '\n' (Buffer.contents buf));
  (* The null logger has nowhere to write and takes records anyway. *)
  Log.event (Log.null ()) "ignored" []

(* --- spans and Chrome trace export ----------------------------------- *)

let test_spans () =
  let segs, total = Span.layout [ ("compile", 0.25); ("simulate", 0.5) ] in
  Alcotest.(check (float 1e-9)) "layout total" 0.75 total;
  (match segs with
  | [ a; b ] ->
    Alcotest.(check (float 1e-9)) "first offset" 0.0 a.Span.sg_off;
    Alcotest.(check (float 1e-9)) "second offset" 0.25 b.Span.sg_off
  | _ -> Alcotest.fail "expected two segments");
  let sp id =
    { Span.sp_id = id; sp_name = Fmt.str "item-%d" id;
      sp_cat = "serve.item"; sp_start = 100.0; sp_dur = total;
      sp_segs = segs }
  in
  (* A full ring keeps the newest spans, oldest first. *)
  expect_invalid "zero capacity" (fun () -> Span.ring 0);
  let ring = Span.ring 2 in
  Span.push ring (sp 0);
  Span.push ring (sp 1);
  Span.push ring (sp 2);
  (match Span.items ring with
  | [ a; b ] ->
    Alcotest.(check int) "oldest survivor" 1 a.Span.sp_id;
    Alcotest.(check int) "newest last" 2 b.Span.sp_id
  | l -> Alcotest.fail (Fmt.str "ring kept %d spans" (List.length l)));
  (* Chrome export: one whole-span event plus one per segment, ph:X,
     microsecond units. *)
  let v = J.parse (Span.chrome [ sp 3 ]) in
  match J.member "traceEvents" v with
  | Some (J.Arr evs) ->
    Alcotest.(check int) "span + segments" 3 (List.length evs);
    (match evs with
    | first :: seg1 :: _ ->
      Alcotest.(check (option string)) "whole-span name" (Some "item-3")
        (Option.map
           (function J.Str s -> s | _ -> "?")
           (J.member "name" first));
      Alcotest.(check (option string)) "ph is X" (Some "X")
        (Option.map
           (function J.Str s -> s | _ -> "?")
           (J.member "ph" first));
      Alcotest.(check bool) "microseconds" true
        ((match J.member "ts" first with
         | Some (J.Float f) -> Float.abs (f -. 1e8) < 1e-3
         | Some (J.Int n) -> n = 100_000_000
         | _ -> false));
      Alcotest.(check (option string)) "segment category" (Some "serve.item.stage")
        (Option.map
           (function J.Str s -> s | _ -> "?")
           (J.member "cat" seg1))
    | _ -> Alcotest.fail "no events")
  | _ -> Alcotest.fail "no traceEvents array"

(* --- explorer expositions across --jobs ------------------------------ *)

let saxpy_src =
  {|
global float X[8]; global float Y[8];
func void main() {
  parallel_for (int i = 0; i < 8; i = i + 1) { Y[i] = 2.0 * X[i] + Y[i]; }
  sync;
}|}

let test_explore_exposition_jobs () =
  (* Workers return measurements, the coordinator folds them in — so
     with a fixed clock the exposition is byte-identical for every
     --jobs value. *)
  let grid =
    [ Config.v "baseline";
      Config.v ~banks:2 "loop-stack";
      Config.v ~tiles:2 "cilk-stack" ]
  in
  let run jobs =
    let obs = Obs.create ~clock:(fun () -> 100.0) () in
    let t =
      Dse.run ~jobs ~grid ~obs
        (Muir_pipeline.Pipeline.of_text ~name:"saxpy8" saxpy_src)
    in
    (t, Prom.render obs.Obs.o_metrics)
  in
  let t1, e1 = run 1 in
  let _, e4 = run 4 in
  Alcotest.(check string) "exposition byte-identical (1 vs 4 jobs)" e1 e4;
  let p = Prom.parse e1 in
  Alcotest.(check (option (float 1e-9))) "evals counter = fresh evals"
    (Some (float_of_int t1.Dse.x_fresh_evals))
    (Prom.find_sample p ~name:"muir_dse_evals_total" ());
  Alcotest.(check (option (float 1e-9))) "sims counter = fresh sims"
    (Some (float_of_int t1.Dse.x_fresh_sims))
    (Prom.find_sample p ~name:"muir_dse_sims_total" ());
  match Prom.find_histogram p ~name:"muir_dse_eval_seconds" () with
  | Some hd ->
    Alcotest.(check int) "one latency observation per fresh eval"
      t1.Dse.x_fresh_evals hd.Prom.hd_count
  | None -> Alcotest.fail "eval-seconds histogram missing"

(* --- registration ---------------------------------------------------- *)

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "bucket boundaries exact" `Quick
            test_bucket_boundaries;
          Alcotest.test_case "registry identity and conflicts" `Quick
            test_registry_identity;
          Alcotest.test_case "quantile interpolation" `Quick test_quantiles ] );
      ( "prom",
        [ Alcotest.test_case "render/parse round trip" `Quick
            test_prom_roundtrip;
          Alcotest.test_case "render deterministic" `Quick
            test_render_deterministic;
          Alcotest.test_case "strict parser rejects" `Quick
            test_parser_rejects ] );
      ( "log",
        [ Alcotest.test_case "record schema golden" `Quick test_log_golden ] );
      ( "span",
        [ Alcotest.test_case "layout, ring, chrome export" `Quick
            test_spans ] );
      ( "explore",
        [ Alcotest.test_case "exposition identical across jobs" `Quick
            test_explore_exposition_jobs ] ) ]
