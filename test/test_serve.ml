(* Tests for the serve subsystem: wire-protocol codecs and framing,
   malformed/oversize/truncated request rejection, on-disk result-cache
   persistence, corruption recovery and failed writes, per-item
   deadlines, batch deduplication, one simulation per distinct circuit,
   cold/warm byte-identity across daemon restarts, admission-queue
   overload, the staged pipeline's equivalence with the direct
   toolchain calls, and an end-to-end socket round trip. *)

module Proto = Muir_serve.Proto
module Rcache = Muir_serve.Rcache
module Server = Muir_serve.Server
module Client = Muir_serve.Client
module Pipeline = Muir_pipeline.Pipeline
module J = Muir_trace.Json
module W = Muir_workloads.Workloads

let item ?(id = 0) ?(stack = "baseline") ?tiles ?banks ?(off = [])
    ?deadline_ms ?(jobs = 1) src : Proto.item =
  { Proto.it_id = id; it_src = src; it_stack = stack; it_tiles = tiles;
    it_banks = banks; it_off = off; it_deadline_ms = deadline_ms;
    it_jobs = jobs }

let results_of = function
  | Proto.Results { results; fresh; cached; errors } ->
    (results, fresh, cached, errors)
  | _ -> Alcotest.fail "expected a run response"

let outcome (rs : Proto.result_ list) (id : int) : Proto.outcome =
  match List.find_opt (fun (r : Proto.result_) -> r.rs_id = id) rs with
  | Some r -> r.rs_outcome
  | None -> Alcotest.fail (Fmt.str "no result for item %d" id)

let item_label (it : Proto.item) =
  Fmt.str "%s/%s(tiles=%a,banks=%a)"
    (match it.it_src with
    | Proto.Workload w -> w
    | Proto.Inline { name; _ } -> name)
    it.it_stack
    Fmt.(option ~none:(any "-") int) it.it_tiles
    Fmt.(option ~none:(any "-") int) it.it_banks

let report_string = function
  | Proto.Ok_ { report; _ } -> J.to_string report
  | Proto.Err { code; msg; _ } ->
    Alcotest.fail (Fmt.str "expected ok, got error %s: %s" code msg)

let err_code = function
  | Proto.Err { code; _ } -> code
  | Proto.Ok_ _ -> Alcotest.fail "expected an error outcome"

(* The ids answered by an evaluation of their own, not from another
   copy's result or the cache. *)
let fresh_ids (rs : Proto.result_ list) : int list =
  List.filter_map
    (fun (r : Proto.result_) ->
      match r.rs_outcome with
      | Proto.Ok_ { cached = false; _ } -> Some r.rs_id
      | _ -> None)
    rs

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "muir-serve-test-%d-%d" (Unix.getpid ()) !n)
    in
    if Sys.file_exists d then
      Array.iter
        (fun f -> Sys.remove (Filename.concat d f))
        (Sys.readdir d);
    d

let write_file (path : string) (s : string) : unit =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- protocol codecs ------------------------------------------------ *)

let test_request_roundtrip () =
  let hostile = "we\"ird\\na\nme\twith \x01 bytes and \xe2\x9c\x93" in
  let req =
    Proto.Run
      [ item ~id:3 ~stack:"loop-stack" ~tiles:4 ~banks:2
          ~off:[ "op-fusion" ] ~deadline_ms:250 ~jobs:2
          (Proto.Workload "gemm");
        item ~id:7 (Proto.Inline { name = hostile; text = hostile }) ]
  in
  let s = Proto.request_to_string req in
  (match Proto.request_of_string s with
  | Proto.Run [ a; b ] ->
    Alcotest.(check int) "id" 3 a.it_id;
    Alcotest.(check string) "stack" "loop-stack" a.it_stack;
    Alcotest.(check (option int)) "tiles" (Some 4) a.it_tiles;
    Alcotest.(check (option int)) "banks" (Some 2) a.it_banks;
    Alcotest.(check (list string)) "off" [ "op-fusion" ] a.it_off;
    Alcotest.(check (option int)) "deadline" (Some 250) a.it_deadline_ms;
    Alcotest.(check int) "jobs" 2 a.it_jobs;
    (match b.it_src with
    | Proto.Inline { name; text } ->
      Alcotest.(check string) "hostile name survives" hostile name;
      Alcotest.(check string) "hostile text survives" hostile text
    | _ -> Alcotest.fail "expected inline source")
  | _ -> Alcotest.fail "round trip lost the request shape");
  (* stats/shutdown round-trip too *)
  Alcotest.(check bool) "stats" true
    (Proto.request_of_string (Proto.request_to_string Proto.Stats)
    = Proto.Stats);
  Alcotest.(check bool) "shutdown" true
    (Proto.request_of_string (Proto.request_to_string Proto.Shutdown)
    = Proto.Shutdown)

let expect_bad (label : string) (s : string) =
  match Proto.request_of_string s with
  | _ -> Alcotest.fail (label ^ ": accepted a malformed request")
  | exception Proto.Bad_request _ -> ()

let test_malformed_requests () =
  expect_bad "garbage" "not json at all {{{";
  expect_bad "no version" {|{"op":"run","items":[]}|};
  expect_bad "wrong version" {|{"muirc":"serve-v9","op":"stats"}|};
  expect_bad "unknown op" {|{"muirc":"serve-v1","op":"dance"}|};
  expect_bad "run without items" {|{"muirc":"serve-v1","op":"run"}|};
  expect_bad "item no source"
    {|{"muirc":"serve-v1","op":"run","items":[{"id":1}]}|};
  expect_bad "item both sources"
    {|{"muirc":"serve-v1","op":"run","items":[{"id":1,"workload":"gemm","source":"x"}]}|};
  expect_bad "item missing id"
    {|{"muirc":"serve-v1","op":"run","items":[{"workload":"gemm"}]}|};
  expect_bad "bad jobs"
    {|{"muirc":"serve-v1","op":"run","items":[{"id":1,"workload":"gemm","jobs":0}]}|}

(* --- framing -------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payload = String.init 5000 (fun i -> Char.chr (i mod 256)) in
      Proto.write_frame a payload;
      Proto.write_frame a "";
      Alcotest.(check (option string)) "payload" (Some payload)
        (Proto.read_frame b);
      Alcotest.(check (option string)) "empty frame" (Some "")
        (Proto.read_frame b);
      Unix.close a;
      Alcotest.(check (option string)) "clean EOF" None (Proto.read_frame b))

let test_truncated_frames () =
  (* Header cut short: 2 of 4 length bytes, then EOF. *)
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "\x00\x01" 0 2);
      Unix.close a;
      match Proto.read_frame b with
      | _ -> Alcotest.fail "truncated header accepted"
      | exception Proto.Frame_error _ -> ());
  (* Payload cut short: header promises 100 bytes, 3 arrive. *)
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "\x00\x00\x00\x64abc" 0 7);
      Unix.close a;
      match Proto.read_frame b with
      | _ -> Alcotest.fail "truncated payload accepted"
      | exception Proto.Frame_error _ -> ())

let test_oversize_frame () =
  with_socketpair (fun a b ->
      Proto.write_frame a (String.make 100 'x');
      match Proto.read_frame ~max_frame:10 b with
      | _ -> Alcotest.fail "oversize frame accepted"
      | exception Proto.Oversize n -> Alcotest.(check int) "length" 100 n)

(* One reusable reply frame writes the bytes [write_frame] writes for
   the printed response, also after a reply large enough to make it give
   its storage back. *)
let test_reply_frame () =
  let path = Filename.temp_file "muir-reply" ".frames" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let replies =
    [ Proto.Bye;
      Proto.Metrics_r (String.make (Proto.reply_frame_keep + 10) 'm');
      Proto.Error_r { code = "bad_request"; msg = "we\"ird\n\x01" };
      Proto.Bye ]
  in
  let f = Proto.reply_frame () in
  let out = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  List.iter (Proto.write_response f out) replies;
  Unix.close out;
  let inp = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close inp) @@ fun () ->
  List.iteri
    (fun i r ->
      Alcotest.(check (option string))
        (Fmt.str "reply %d" i)
        (Some (Proto.response_to_string r))
        (Proto.read_frame ~max_frame:max_int inp))
    replies;
  Alcotest.(check (option string)) "nothing else" None (Proto.read_frame inp)

(* --- malformed payloads against a live server state ----------------- *)

let test_handle_malformed () =
  let t = Server.create () in
  (* The socket loop parses each frame with [Proto.request_of_string]
     and answers [Bad_request] with the structured [bad_request]
     error. *)
  List.iter
    (fun (label, payload) ->
      match Proto.request_of_string payload with
      | exception Proto.Bad_request _ -> ()
      | _ -> Alcotest.fail (label ^ " payload not rejected"))
    [ ("garbage", "}{ nope"); ("nested", String.make 100_000 '[') ];
  (* ... and the server still works afterwards. *)
  let rs, fresh, _, errors =
    results_of (Server.handle t (Proto.Run [ item (Proto.Workload "saxpy") ]))
  in
  Alcotest.(check int) "still serving" 1 fresh;
  Alcotest.(check int) "no errors" 0 errors;
  ignore (report_string (outcome rs 0))

(* --- per-item failure containment ----------------------------------- *)

let test_item_errors_contained () =
  let t = Server.create () in
  let rs, fresh, _, errors =
    results_of
      (Server.handle t
         (Proto.Run
            [ item ~id:0 (Proto.Workload "no-such-workload");
              item ~id:1 ~stack:"no-such-stack" (Proto.Workload "saxpy");
              item ~id:2
                (Proto.Inline { name = "broken"; text = "func nope {" });
              item ~id:3 ~deadline_ms:0 (Proto.Workload "fib");
              item ~id:4 (Proto.Workload "saxpy");
              item ~id:5
                (Proto.Inline
                   { name = "badnum";
                     text = "func void main() { float x = 1e; }" });
              item ~id:6 ~stack:"loop-stack" ~banks:0
                (Proto.Workload "saxpy");
              item ~id:7 ~stack:"cilk-stack" ~tiles:0
                (Proto.Workload "fib") ]))
  in
  Alcotest.(check int) "seven items failed" 7 errors;
  Alcotest.(check int) "the good item ran" 1 fresh;
  Alcotest.(check string) "unknown workload" "bad_request"
    (err_code (outcome rs 0));
  Alcotest.(check string) "unknown stack" "bad_request"
    (err_code (outcome rs 1));
  Alcotest.(check string) "compile error" "compile_error"
    (err_code (outcome rs 2));
  Alcotest.(check string) "malformed literal" "compile_error"
    (err_code (outcome rs 5));
  Alcotest.(check string) "zero banks" "bad_request"
    (err_code (outcome rs 6));
  Alcotest.(check string) "zero tiles" "bad_request"
    (err_code (outcome rs 7));
  (match outcome rs 3 with
  | Proto.Err { code; stage; _ } ->
    Alcotest.(check string) "deadline code" "deadline" code;
    Alcotest.(check (option string)) "deadline names a stage"
      (Some "compile") stage
  | _ -> Alcotest.fail "expired deadline did not fail");
  ignore (report_string (outcome rs 4));
  (* The daemon state survives: the same batch again is served, and the
     good item now comes from the cache. *)
  let _, fresh2, cached2, errors2 =
    results_of
      (Server.handle t (Proto.Run [ item ~id:4 (Proto.Workload "saxpy") ]))
  in
  Alcotest.(check int) "no fresh work" 0 fresh2;
  Alcotest.(check int) "cache answers" 1 cached2;
  Alcotest.(check int) "no errors" 0 errors2

(* --- batch dedup ----------------------------------------------------- *)

let test_batch_dedup () =
  let t = Server.create () in
  let rs, fresh, cached, errors =
    results_of
      (Server.handle t
         (Proto.Run
            [ item ~id:0 (Proto.Workload "saxpy");
              item ~id:1 ~jobs:2 (Proto.Workload "saxpy");
              item ~id:2 ~deadline_ms:60_000 (Proto.Workload "saxpy") ]))
  in
  Alcotest.(check int) "one simulation" 1 fresh;
  Alcotest.(check int) "two dedup answers" 2 cached;
  Alcotest.(check int) "no errors" 0 errors;
  (* Of equally constrained copies, the first is the one evaluated. *)
  Alcotest.(check (list int)) "first unconstrained copy is fresh" [ 0 ]
    (fresh_ids rs);
  (* jobs and deadline are not part of the key, so all three reports
     are the same bytes. *)
  let a = report_string (outcome rs 0) in
  Alcotest.(check string) "dup report identical" a
    (report_string (outcome rs 1));
  Alcotest.(check string) "deadline variant identical" a
    (report_string (outcome rs 2));
  (* An expired deadline on one copy must not fail an unconstrained
     copy of the same key: the least-constrained item is the
     representative, and the constrained dup answers from its result. *)
  let t2 = Server.create () in
  let rs, fresh, cached, errors =
    results_of
      (Server.handle t2
         (Proto.Run
            [ item ~id:0 ~deadline_ms:0 (Proto.Workload "gemm");
              item ~id:1 (Proto.Workload "gemm") ]))
  in
  Alcotest.(check int) "unconstrained copy evaluated" 1 fresh;
  Alcotest.(check (list int)) "the unconstrained copy is fresh" [ 1 ]
    (fresh_ids rs);
  Alcotest.(check int) "constrained copy answered" 1 cached;
  Alcotest.(check int) "nobody failed" 0 errors;
  let rs, _, _, _ =
    results_of
      (Server.handle t2
         (Proto.Run
            [ item ~id:0 ~deadline_ms:60_000 (Proto.Workload "fib");
              item ~id:1 ~deadline_ms:60_000 (Proto.Workload "fib") ]))
  in
  Alcotest.(check (list int)) "first of equal deadlines is fresh" [ 0 ]
    (fresh_ids rs);
  (* When every copy is past its deadline, the error replays to dups. *)
  let rs, _, _, errors =
    results_of
      (Server.handle t2
         (Proto.Run
            [ item ~id:0 ~deadline_ms:0 (Proto.Workload "conv1d");
              item ~id:1 ~deadline_ms:0 (Proto.Workload "conv1d") ]))
  in
  Alcotest.(check int) "both expired" 2 errors;
  Alcotest.(check string) "rep deadline" "deadline" (err_code (outcome rs 0));
  Alcotest.(check string) "dup deadline" "deadline" (err_code (outcome rs 1))

(* --- the run-report contract -------------------------------------------- *)

(* bench/baseline.json's runs, each as the text Report.to_json emits. *)
let baseline_rows =
  lazy
    (List.map
       (fun (r : Muir_trace.Report.run) ->
         ((r.r_workload, r.r_stack), Muir_trace.Report.to_json r))
       (Muir_trace.Report.load "../bench/baseline.json").su_runs)

let baseline_row (workload : string) (stack : string) : string =
  match List.assoc_opt (workload, stack) (Lazy.force baseline_rows) with
  | Some j -> j
  | None -> Alcotest.failf "bench/baseline.json has no %s/%s run" workload stack

(* --- spliced replies ---------------------------------------------------- *)

(* The 48 registry pairs: workload [i] at baseline is item [2i], under
   the best stack item [2i + 1]. *)
let registry_items () : Proto.item list =
  List.concat
    (List.mapi
       (fun i (w : W.t) ->
         [ item ~id:(2 * i) (Proto.Workload w.wname);
           item ~id:((2 * i) + 1) ~stack:"best" (Proto.Workload w.wname) ])
       W.all)

(* Ok results splice the stored report text; the reply must be the bytes
   the daemon printed when it parsed and re-printed each report, for
   every registry workload at baseline and under the best stack, fresh
   and from the cache.  Each baseline report is bench/baseline.json's
   run for that workload, byte for byte. *)
let test_spliced_replies () =
  let t = Server.create () in
  let items = registry_items () in
  let reparse = function
    | Proto.Results r ->
      Proto.Results
        { r with
          results =
            List.map
              (fun (x : Proto.result_) ->
                match x.rs_outcome with
                | Proto.Ok_ { cached; report = J.Raw p } ->
                  { x with
                    rs_outcome = Proto.Ok_ { cached; report = J.parse p } }
                | Proto.Ok_ _ ->
                  Alcotest.failf "item %d: report not spliced" x.rs_id
                | Proto.Err { code; msg; _ } ->
                  Alcotest.failf "item %d: %s: %s" x.rs_id code msg)
              r.results }
    | _ -> Alcotest.fail "expected a run response"
  in
  List.iter
    (fun round ->
      let resp = Server.handle t (Proto.Run items) in
      Alcotest.(check string)
        (round ^ " reply bytes")
        (Proto.response_to_string (reparse resp))
        (Proto.response_to_string resp);
      let rs, _, _, _ = results_of resp in
      List.iteri
        (fun i (w : W.t) ->
          Alcotest.(check string)
            (Fmt.str "%s %s/baseline is the baseline.json run" round w.wname)
            (baseline_row w.wname "baseline")
            (report_string (outcome rs (2 * i))))
        W.all)
    [ "fresh"; "cached" ]

(* Decode allocation guard: a client's decode of a reply allocates the
   tree it returns and nothing per input byte.  Over the cached
   single-item replies of the 48 registry pairs, [Proto.response_of_string]
   allocates at most 1 minor word per input byte (about 0.65 measured).
   Minor-heap allocation is deterministic, so this does not flake. *)
let test_decode_allocation () =
  let t = Server.create () in
  let items = registry_items () in
  ignore (Server.handle t (Proto.Run items));
  let bytes = ref 0 and words = ref 0.0 in
  List.iter
    (fun it ->
      let reply =
        Proto.response_to_string (Server.handle t (Proto.Run [ it ]))
      in
      let m0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (Proto.response_of_string reply));
      words := !words +. (Gc.minor_words () -. m0);
      bytes := !bytes + String.length reply)
    items;
  let per_byte = !words /. float_of_int !bytes in
  if per_byte > 1.0 then
    Alcotest.failf
      "decoding %d cached replies (%d bytes) allocates %.2f minor words per \
       byte (limit 1)"
      (List.length items) !bytes per_byte

(* --- persistence and byte-identity across restarts ------------------- *)

let suite_items () =
  [ item ~id:0 (Proto.Workload "saxpy");
    item ~id:1 ~stack:"loop-stack" (Proto.Workload "saxpy");
    item ~id:2 ~stack:"cilk-stack" ~tiles:2 (Proto.Workload "fib");
    item ~id:3
      (Proto.Inline
         { name = "tiny";
           text =
             {|
global float X[8]; global float Y[8];
func void main() {
  parallel_for (int i = 0; i < 8; i = i + 1) { Y[i] = 2.0 * X[i]; }
  sync;
}|} }) ]

let test_restart_byte_identity () =
  let dir = fresh_dir () in
  let t1 = Server.create ~cache_dir:dir () in
  let rs1, fresh1, _, errors1 =
    results_of (Server.handle t1 (Proto.Run (suite_items ())))
  in
  Alcotest.(check int) "cold round all fresh" 4 fresh1;
  Alcotest.(check int) "cold round clean" 0 errors1;
  (* A brand-new daemon on the same directory: zero fresh simulations,
     byte-identical reports. *)
  let t2 = Server.create ~cache_dir:dir () in
  let rs2, fresh2, cached2, errors2 =
    results_of (Server.handle t2 (Proto.Run (suite_items ())))
  in
  Alcotest.(check int) "warm round zero fresh" 0 fresh2;
  Alcotest.(check int) "warm round all cached" 4 cached2;
  Alcotest.(check int) "warm round clean" 0 errors2;
  List.iter
    (fun i ->
      Alcotest.(check string)
        (Fmt.str "report %d byte-identical" i)
        (report_string (outcome rs1 i))
        (report_string (outcome rs2 i)))
    [ 0; 1; 2; 3 ]

module Prom = Muir_obs.Prom
module Obs = Muir_obs.Obs

let scrape (t : Server.t) : Prom.parsed =
  match Server.handle t Proto.Metrics with
  | Proto.Metrics_r text -> Prom.parse text
  | _ -> Alcotest.fail "expected a metrics response"

let sample p name = Prom.find_sample p ~name ()

let test_cache_corruption_recovery () =
  let dir = fresh_dir () in
  let t1 = Server.create ~cache_dir:dir () in
  let _ = Server.handle t1 (Proto.Run (suite_items ())) in
  let entries = Sys.readdir dir in
  Alcotest.(check int) "four entries on disk" 4 (Array.length entries);
  (* Corrupt one entry (flip a payload byte) and truncate another. *)
  let path i = Filename.concat dir entries.(i) in
  let s0 = In_channel.with_open_bin (path 0) In_channel.input_all in
  let flipped = Bytes.of_string s0 in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last
    (Char.chr (Char.code (Bytes.get flipped last) lxor 0xff));
  write_file (path 0) (Bytes.to_string flipped);
  let s1 = In_channel.with_open_bin (path 1) In_channel.input_all in
  write_file (path 1) (String.sub s1 0 (String.length s1 / 2));
  (* A fresh daemon detects both, discards them, and keeps serving. *)
  let t2 = Server.create ~cache_dir:dir () in
  (match Server.handle t2 Proto.Stats with
  | Proto.Stats_r s ->
    Alcotest.(check int) "corrupt entries counted" 2 s.st_cache_corrupt;
    Alcotest.(check int) "survivors loaded" 2 s.st_cache_entries
  | _ -> Alcotest.fail "expected stats");
  Alcotest.(check (option (float 1e-9))) "corrupt entries exposed" (Some 2.0)
    (sample (scrape t2) "muir_serve_cache_corrupt_total");
  Alcotest.(check bool) "corrupt files removed" true
    (Array.length (Sys.readdir dir) = 2);
  let _, fresh, cached, errors =
    results_of (Server.handle t2 (Proto.Run (suite_items ())))
  in
  Alcotest.(check int) "two re-simulated" 2 fresh;
  Alcotest.(check int) "two from surviving entries" 2 cached;
  Alcotest.(check int) "no errors" 0 errors;
  (* The rebuilt store is whole again. *)
  let t3 = Server.create ~cache_dir:dir () in
  let _, fresh3, _, _ =
    results_of (Server.handle t3 (Proto.Run (suite_items ())))
  in
  Alcotest.(check int) "rebuilt store answers everything" 0 fresh3

(* --- telemetry: the metrics op and the observation invariant --------- *)

let item_hist p cached =
  match
    Prom.find_histogram p ~name:"muir_serve_item_seconds"
      ~labels:[ ("cached", cached) ] ()
  with
  | Some hd -> hd
  | None -> Alcotest.fail ("no item histogram for cached=" ^ cached)

let test_metrics_op () =
  let obs = Obs.create ~clock:(fun () -> 42.0) () in
  let t = Server.create ~obs () in
  (* A scrape before any traffic already exposes every family, at
     zero, and parses strictly. *)
  let p0 = scrape t in
  Alcotest.(check (option (float 1e-9))) "items start at zero" (Some 0.0)
    (sample p0 "muir_serve_items_total");
  Alcotest.(check (option string)) "errors family pre-registered"
    (Some "counter")
    (List.assoc_opt "muir_serve_errors_total" p0.Prom.p_types);
  (* One batch: a fresh evaluation, an in-batch duplicate, a failure. *)
  let batch =
    Proto.Run
      [ item ~id:0 (Proto.Workload "saxpy");
        item ~id:1 (Proto.Workload "saxpy");
        item ~id:2 (Proto.Workload "no-such-workload") ]
  in
  let _, fresh, cached, errors = results_of (Server.handle t batch) in
  Alcotest.(check int) "one fresh" 1 fresh;
  Alcotest.(check int) "one dup" 1 cached;
  Alcotest.(check int) "one error" 1 errors;
  let p = scrape t in
  Alcotest.(check (option (float 1e-9))) "requests" (Some 1.0)
    (sample p "muir_serve_requests_total");
  Alcotest.(check (option (float 1e-9))) "items" (Some 3.0)
    (sample p "muir_serve_items_total");
  Alcotest.(check (option (float 1e-9))) "ok" (Some 2.0)
    (sample p "muir_serve_ok_total");
  Alcotest.(check (option (float 1e-9))) "error coded" (Some 1.0)
    (Prom.find_sample p ~name:"muir_serve_errors_total"
       ~labels:[ ("code", "bad_request") ] ());
  (* The invariant the CI smoke reconciles: exactly one latency
     observation per item, split fresh/cached, totalling ok+errors.
     The failed item counts as fresh (it was not answered from
     cache). *)
  let hf = item_hist p "false" and hc = item_hist p "true" in
  Alcotest.(check int) "fresh observations" 2 hf.Prom.hd_count;
  Alcotest.(check int) "cached observations" 1 hc.Prom.hd_count;
  Alcotest.(check int) "observations = ok + errors" 3
    (hf.Prom.hd_count + hc.Prom.hd_count);
  (* A second identical batch: everything answers from the cache or
     fails again; the invariant holds cumulatively. *)
  let _ = Server.handle t batch in
  let p2 = scrape t in
  let hf2 = item_hist p2 "false" and hc2 = item_hist p2 "true" in
  Alcotest.(check int) "cumulative observations" 6
    (hf2.Prom.hd_count + hc2.Prom.hd_count);
  Alcotest.(check int) "round 2 hits are cached" 3 hc2.Prom.hd_count;
  (* Per-stage histograms saw exactly the one fresh evaluation. *)
  (match
     Prom.find_histogram p2 ~name:"muir_serve_stage_seconds"
       ~labels:[ ("stage", "simulate") ] ()
   with
  | Some hd -> Alcotest.(check int) "one simulation staged" 1 hd.Prom.hd_count
  | None -> Alcotest.fail "no simulate stage histogram");
  (* The fixed clock pins the time-derived series. *)
  Alcotest.(check (option (float 1e-9))) "uptime from injected clock"
    (Some 0.0)
    (sample p2 "muir_serve_uptime_seconds");
  (* The stats op reads the same store: its totals are the counters,
     its errors the sum over codes, and each stage's count and seconds
     that stage's histogram count and sum. *)
  let st =
    match Server.handle t Proto.Stats with
    | Proto.Stats_r st -> st
    | _ -> Alcotest.fail "expected stats"
  in
  let counter name = int_of_float (Option.get (sample p2 name)) in
  List.iter
    (fun (what, v, name) ->
      Alcotest.(check int) ("stats " ^ what) (counter name) v)
    [ ("requests", st.st_requests, "muir_serve_requests_total");
      ("items", st.st_items, "muir_serve_items_total");
      ("ok", st.st_ok, "muir_serve_ok_total");
      ("fresh", st.st_fresh, "muir_serve_fresh_total");
      ("cached", st.st_cached, "muir_serve_cached_total");
      ("cache hits", st.st_cache_hits, "muir_serve_cache_hits_total");
      ("cache misses", st.st_cache_misses, "muir_serve_cache_misses_total")
    ];
  Alcotest.(check int) "stats errors" 2 st.st_errors;
  Alcotest.(check int) "stats errors = Σ errors_total"
    (List.fold_left
       (fun n (s : Prom.sample_line) ->
         if s.s_name = "muir_serve_errors_total" then
           n + int_of_float s.s_value
         else n)
       0 p2.Prom.p_samples)
    st.st_errors;
  List.iter
    (fun (g : Proto.stage_stat) ->
      match
        Prom.find_histogram p2 ~name:"muir_serve_stage_seconds"
          ~labels:[ ("stage", g.tg_stage) ] ()
      with
      | Some hd ->
        Alcotest.(check int) (g.tg_stage ^ " count") hd.Prom.hd_count
          g.tg_count;
        Alcotest.(check (float 1e-9)) (g.tg_stage ^ " seconds")
          hd.Prom.hd_sum g.tg_seconds
      | None -> Alcotest.failf "no %s stage histogram" g.tg_stage)
    st.st_stages

(* Random damage to a stored entry: 1–8 bytes overwritten at random, or
   the file cut at a random length.  Reopening the cache never raises;
   it either drops the entry (counted corrupt, file removed) or, when
   the damage left it intact, serves the original payload byte-equal. *)
let prop_cache_mutation () =
  let dir = fresh_dir () in
  let key = "saxpy|baseline" and payload = {|{"cycles":1234,"ok":true}|} in
  Rcache.add (Rcache.create ~dir ()) key payload;
  let path = Rcache.entry_path dir key in
  let entry = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length entry in
  let damage =
    QCheck.Gen.(
      oneof
        [ map
            (fun l -> `Overwrite l)
            (list_size (int_range 1 8)
               (pair (int_bound (n - 1)) (int_bound 255)));
          map (fun k -> `Cut k) (int_bound (n - 1)) ])
  in
  let print = function
    | `Cut k -> Fmt.str "cut at %d" k
    | `Overwrite l ->
      String.concat "; " (List.map (fun (i, c) -> Fmt.str "[%d] <- %d" i c) l)
  in
  QCheck.Test.make ~count:300 ~name:"mutated entry dropped or intact"
    (QCheck.make ~print damage)
    (fun d ->
      write_file path
        (match d with
        | `Cut k -> String.sub entry 0 k
        | `Overwrite l ->
          let b = Bytes.of_string entry in
          List.iter (fun (i, c) -> Bytes.set b i (Char.chr c)) l;
          Bytes.to_string b);
      let t = Rcache.create ~dir () in
      let st = Rcache.stats t in
      match Rcache.find t key with
      | Some p -> p = payload && st.corrupt = 0
      | None ->
        st.corrupt = 1 && st.entries = 0 && not (Sys.file_exists path))

(* Random damage to a valid [run] (saxpy) or [stats] frame: 1–2 bytes
   overwritten with any byte value (four cases in five), or the frame
   cut short.  Each mutant goes the way the socket loop sends it —
   [Proto.request_of_string], then [Server.handle] — and its reply
   must be UTF-8 JSON without an [internal] error.  One memory-only
   server answers every case, so a mutant that stays a valid request
   is a cache hit. *)
let prop_mutated_frames () =
  let t = Server.create () in
  let frames =
    [| Proto.request_to_string (Proto.Run [ item (Proto.Workload "saxpy") ]);
       Proto.request_to_string Proto.Stats |]
  in
  let damage =
    QCheck.Gen.(
      int_bound 1 >>= fun f ->
      let n = String.length frames.(f) in
      frequency
        [ ( 4,
            map
              (fun l -> (f, `Overwrite l))
              (list_size (int_range 1 2)
                 (pair (int_bound (n - 1)) (int_bound 255))) );
          (1, map (fun k -> (f, `Cut k)) (int_bound (n - 1))) ])
  in
  let mutate (f, d) =
    let frame = frames.(f) in
    match d with
    | `Cut k -> String.sub frame 0 k
    | `Overwrite l ->
      let b = Bytes.of_string frame in
      List.iter (fun (i, c) -> Bytes.set b i (Char.chr c)) l;
      Bytes.to_string b
  in
  QCheck.Test.make ~count:400 ~name:"mutated frames get UTF-8 JSON replies"
    (QCheck.make ~print:(fun d -> String.escaped (mutate d)) damage)
    (fun d ->
      let reply =
        match Proto.request_of_string (mutate d) with
        | exception Proto.Bad_request msg ->
          Proto.Error_r { code = "bad_request"; msg }
        | Proto.Shutdown -> Proto.Bye
        | req -> Server.handle t req
      in
      let text = Proto.response_to_string reply in
      String.is_valid_utf_8 text
      && (match J.parse text with
         | _ -> true
         | exception J.Parse_error _ -> false)
      &&
      let needle = {|"code":"internal"|} in
      let n = String.length needle in
      let rec has i =
        i + n <= String.length text
        && (String.sub text i n = needle || has (i + 1))
      in
      not (has 0))

let test_rcache_disk_bytes () =
  let dir = fresh_dir () in
  let t1 = Server.create ~cache_dir:dir () in
  let _ = Server.handle t1 (Proto.Run (suite_items ())) in
  let files () = if Sys.file_exists dir then Sys.readdir dir else [||] in
  let on_disk () =
    Array.fold_left
      (fun acc f ->
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
      0 (files ())
  in
  let disk_bytes t =
    match Server.handle t Proto.Stats with
    | Proto.Stats_r s -> s.Proto.st_cache_disk_bytes
    | _ -> Alcotest.fail "expected stats"
  in
  (* The stats reply and the gauge both read what is on disk now. *)
  let check_measured label t =
    Alcotest.(check int) (label ^ ": stats") (on_disk ()) (disk_bytes t);
    Alcotest.(check (option (float 1e-9))) (label ^ ": gauge")
      (Some (float_of_int (on_disk ())))
      (Prom.find_sample (scrape t) ~name:"muir_serve_rcache_disk_bytes" ())
  in
  Alcotest.(check bool) "entries written" true (on_disk () > 0);
  Alcotest.(check int) "gauge matches the files" (on_disk ())
    (disk_bytes t1);
  (* A fresh daemon re-derives the same total from the load scan. *)
  let t2 = Server.create ~cache_dir:dir () in
  Alcotest.(check int) "restart re-derives the total" (on_disk ())
    (disk_bytes t2);
  (* A memory-only daemon reports zero. *)
  Alcotest.(check int) "memory-only is zero" 0
    (disk_bytes (Server.create ()));
  (* ... and the metrics op exposes the same number. *)
  check_measured "restart" t2;
  (* Entry files removed behind the daemon's back stop counting: one
     file, then the whole directory. *)
  let before = on_disk () in
  Sys.remove (Filename.concat dir (files ()).(0));
  Alcotest.(check bool) "one entry fewer on disk" true (on_disk () < before);
  check_measured "one entry deleted" t1;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (files ());
  Sys.rmdir dir;
  check_measured "directory removed" t1

(* A removed cache directory makes every entry write fail: the item is
   still answered from its result, the failure is counted and logged
   once with the entry's path, and the daemon keeps serving. *)
let test_cache_write_failure () =
  let lines = ref [] in
  let obs =
    Obs.create ~log:(Muir_obs.Log.create (fun l -> lines := l :: !lines)) ()
  in
  let dir = fresh_dir () in
  let t = Server.create ~cache_dir:dir ~obs () in
  Sys.rmdir dir;
  let saxpy = item (Proto.Workload "saxpy") in
  let rs, fresh, _, errors =
    results_of (Server.handle t (Proto.Run [ saxpy ]))
  in
  Alcotest.(check int) "answered fresh" 1 fresh;
  Alcotest.(check int) "no item error" 0 errors;
  ignore (report_string (outcome rs 0));
  Alcotest.(check (option (float 1e-9))) "write error counted" (Some 1.0)
    (sample (scrape t) "muir_serve_cache_write_errors_total");
  let warns =
    List.filter_map
      (fun l ->
        let j = J.parse l in
        match (J.member "event" j, J.member "level" j) with
        | Some (J.Str "cache_write_error"), Some (J.Str "warn") -> Some j
        | _ -> None)
      !lines
  in
  (match warns with
  | [ w ] ->
    let key = Server.item_key saxpy.it_src (Server.item_config saxpy) in
    Alcotest.(check (option string)) "names the entry"
      (Some (Rcache.entry_path dir key))
      (Option.map J.to_str_exn (J.member "path" w));
    Alcotest.(check bool) "gives the reason" true
      (match J.member "reason" w with Some (J.Str r) -> r <> "" | _ -> false)
  | ws -> Alcotest.failf "expected one warn record, got %d" (List.length ws));
  let _, fresh2, cached2, errors2 =
    results_of
      (Server.handle t
         (Proto.Run
            [ saxpy; item ~id:1 ~stack:"loop-stack" (Proto.Workload "fib") ]))
  in
  Alcotest.(check int) "the entry is in memory" 1 cached2;
  Alcotest.(check int) "a new key is served" 1 fresh2;
  Alcotest.(check int) "still no error" 0 errors2

(* A rename that fails (the target is a non-empty directory) removes the
   temp file it wrote. *)
let test_write_atomic_cleans_up () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let target = Filename.concat dir "entry" in
  Unix.mkdir target 0o755;
  write_file (Filename.concat target "x") "x";
  (match Rcache.write_atomic target [ "payload" ] with
  | () -> Alcotest.fail "rename over a directory succeeded"
  | exception Rcache.Write_error (path, _) ->
    Alcotest.(check string) "names the target" target path);
  Alcotest.(check (list string)) "no temp file left" [ "entry" ]
    (Array.to_list (Sys.readdir dir));
  Sys.remove (Filename.concat target "x");
  Sys.rmdir target;
  Sys.rmdir dir

(* --- one simulation per distinct circuit ------------------------------- *)

module Config = Muir_dse.Config

(* fib, gemm and conv[T] × every registry stack × tiles {1,2,4} × banks
   {1,2}: 90 items over 48 keys, many of which build the same circuit. *)
let reuse_items : Proto.item list =
  List.concat_map
    (fun w ->
      List.concat_map
        (fun (s : Muir_opt.Stacks.spec) ->
          List.concat_map
            (fun tiles ->
              List.map (fun banks -> (w, s.sp_name, tiles, banks)) [ 1; 2 ])
            [ 1; 2; 4 ])
        Muir_opt.Stacks.registry)
    [ "fib"; "gemm"; "conv[T]" ]
  |> List.mapi (fun id (w, stack, tiles, banks) ->
         item ~id ~stack ~tiles ~banks (Proto.Workload w))

let reuse_key (it : Proto.item) =
  Server.item_key it.it_src (Server.item_config it)

(* Each key's circuit digest and the report of its own simulation. *)
let own_reports : (string, string * string) Hashtbl.t Lazy.t =
  lazy
    (let tbl = Hashtbl.create 64 in
     List.iter
       (fun (it : Proto.item) ->
         let key = reuse_key it in
         if not (Hashtbl.mem tbl key) then begin
           let cfg = Server.item_config it in
           let name = match it.it_src with Proto.Workload w -> w | _ -> "" in
           let b =
             Pipeline.build ~passes:(Config.passes cfg)
               (Pipeline.of_workload_name name)
           in
           let digest = Muir_core.Graph.digest b.p_circuit in
           let r = Pipeline.simulate b in
           Hashtbl.add tbl key
             ( digest,
               Muir_trace.Report.to_json
                 (Pipeline.report ~stack:(Config.label cfg)
                    ~knobs:(Config.knobs cfg) b (Pipeline.model b) r) )
         end)
       reuse_items;
     tbl)

(* Sent one item per request, every reply, whether simulated or
   relabelled from another key's report, is the report of that key's
   own simulation, byte for byte; the daemon simulates once per
   distinct circuit and reuses for every other key. *)
let test_reuse_exact () =
  let own = Lazy.force own_reports in
  let keys = Hashtbl.length own in
  let digests =
    Hashtbl.fold (fun _ (d, _) ds -> d :: ds) own []
    |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check bool) "some keys share a circuit" true (digests < keys);
  let t = Server.create () in
  List.iter
    (fun (it : Proto.item) ->
      let rs, _, _, _ = results_of (Server.handle t (Proto.Run [ it ])) in
      Alcotest.(check string)
        (Fmt.str "item %d (%s)" it.it_id (item_label it))
        (snd (Hashtbl.find own (reuse_key it)))
        (report_string (outcome rs it.it_id)))
    reuse_items;
  match Server.handle t Proto.Stats with
  | Proto.Stats_r s ->
    Alcotest.(check int) "reused = keys - digests" (keys - digests)
      s.st_reused;
    Alcotest.(check int) "fresh = keys" keys s.st_fresh;
    Alcotest.(check (list int)) "one simulation per circuit" [ digests ]
      (List.filter_map
         (fun (g : Proto.stage_stat) ->
           if g.tg_stage = "simulate" then Some g.tg_count else None)
         s.st_stages)
  | _ -> Alcotest.fail "expected stats"

(* --- pipeline equivalence -------------------------------------------- *)

let test_pipeline_matches_direct () =
  let w = W.find "saxpy" in
  let passes = Muir_opt.Stacks.loop_stack () in
  (* Direct toolchain calls, as the CLI made them before the port. *)
  let c = Muir_core.Build.circuit ~name:w.wname (W.program w) in
  let _ = Muir_opt.Pass.run_all passes c in
  let direct = Muir_sim.Sim.run c in
  (* The staged pipeline. *)
  let b =
    Pipeline.build
      ~passes:(Muir_opt.Stacks.loop_stack ())
      (Pipeline.of_workload w)
  in
  let piped = Pipeline.simulate b in
  Alcotest.(check int) "identical cycles"
    direct.Muir_sim.Sim.stats.total_cycles
    piped.Muir_sim.Sim.stats.total_cycles;
  Alcotest.(check int) "identical fires" direct.Muir_sim.Sim.stats.fires
    piped.Muir_sim.Sim.stats.fires;
  Alcotest.(check string) "circuit named after the workload" w.wname
    b.p_circuit.cname

(* Every workload at baseline and under the per-category stack, through
   build → simulate → model → report: bench/baseline.json's 48 runs. *)
let test_report_contract () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (stack, passes) ->
          let b = Pipeline.build ~passes (Pipeline.of_workload w) in
          let r = Pipeline.simulate b in
          Alcotest.(check string) (w.wname ^ "/" ^ stack)
            (baseline_row w.wname stack)
            (Muir_trace.Report.to_json
               (Pipeline.report ~stack b (Pipeline.model b) r)))
        [ ("baseline", []); ("best", Pipeline.per_category w) ])
    W.all

let test_pipeline_ctl () =
  let ctl = Pipeline.ctl () in
  let b =
    Pipeline.build ~ctl ~passes:(Muir_opt.Stacks.loop_stack ())
      (Pipeline.of_workload_name "saxpy")
  in
  let _ = Pipeline.model ~ctl b in
  let _ = Pipeline.simulate ~ctl b in
  List.iter
    (fun st ->
      Alcotest.(check int)
        (Pipeline.stage_name st ^ " ran once")
        1
        ctl.stage_counts.(Pipeline.stage_index st);
      Alcotest.(check bool)
        (Pipeline.stage_name st ^ " time accounted")
        true
        (Pipeline.seconds ctl st >= 0.0))
    Pipeline.stages;
  (* An already-expired deadline fails at the first boundary, naming
     the stage that was about to run. *)
  let expired = Pipeline.ctl ~deadline:(Unix.gettimeofday () -. 1.0) () in
  match
    Pipeline.build ~ctl:expired (Pipeline.of_workload_name "saxpy")
  with
  | _ -> Alcotest.fail "expired deadline did not raise"
  | exception Pipeline.Deadline st ->
    Alcotest.(check string) "first stage blamed" "compile"
      (Pipeline.stage_name st)

(* --- end-to-end over the socket -------------------------------------- *)

let test_socket_end_to_end () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "muir-serve-e2e-%d.sock" (Unix.getpid ()))
  in
  let t = Server.create ~jobs:2 ~queue_cap:3 () in
  (* A small frame cap keeps the oversize probe below the socket-buffer
     size, so the whole frame is written before the server answers. *)
  let ln = Server.listen socket in
  let d = Domain.spawn (fun () -> Server.serve ~max_frame:4096 ln t) in
  (* Round 1: mixed batch. *)
  let batch =
    Proto.Run
      [ item ~id:0 (Proto.Workload "saxpy");
        item ~id:1 ~stack:"loop-stack" (Proto.Workload "saxpy");
        item ~id:2 (Proto.Workload "no-such-workload") ]
  in
  let rs1, fresh1, _, errors1 =
    Client.with_connection socket (fun fd ->
        results_of (Client.rpc fd batch))
  in
  Alcotest.(check int) "round 1 fresh" 2 fresh1;
  Alcotest.(check int) "round 1 errors" 1 errors1;
  (* Round 2: identical batch, zero fresh work, identical reports. *)
  let rs2, fresh2, cached2, _ =
    Client.with_connection socket (fun fd ->
        results_of (Client.rpc fd batch))
  in
  Alcotest.(check int) "round 2 zero fresh" 0 fresh2;
  Alcotest.(check int) "round 2 cached" 2 cached2;
  List.iter
    (fun i ->
      Alcotest.(check string)
        (Fmt.str "socket report %d identical" i)
        (report_string (outcome rs1 i))
        (report_string (outcome rs2 i)))
    [ 0; 1 ];
  (* Overload: a batch larger than the admission cap is rejected with a
     structured error, and the daemon keeps serving. *)
  let big =
    Proto.Run
      (List.init 4 (fun i -> item ~id:i (Proto.Workload "saxpy")))
  in
  (match
     Client.with_connection socket (fun fd -> Client.rpc fd big)
   with
  | Proto.Error_r { code; _ } ->
    Alcotest.(check string) "overloaded" "overloaded" code
  | _ -> Alcotest.fail "oversized batch admitted");
  (* Malformed JSON over the wire: structured rejection. *)
  Client.with_connection socket (fun fd ->
      Proto.write_frame fd "this is not json";
      match Proto.read_frame fd with
      | Some payload -> (
        match Proto.response_of_string payload with
        | Proto.Error_r { code; _ } ->
          Alcotest.(check string) "wire bad_request" "bad_request" code
        | _ -> Alcotest.fail "garbage frame not rejected")
      | None -> Alcotest.fail "no response to garbage frame");
  (* Oversize frame: structured rejection, connection closed. *)
  Client.with_connection socket (fun fd ->
      Proto.write_frame fd (String.make 5000 'x');
      match Proto.read_frame fd with
      | Some payload -> (
        match Proto.response_of_string payload with
        | Proto.Error_r { code; _ } ->
          Alcotest.(check string) "wire oversize" "oversize" code
        | _ -> Alcotest.fail "oversize frame not rejected")
      | None -> Alcotest.fail "no response to oversize frame");
  (* Still serving after all that; stats reflect the history. *)
  (match
     Client.with_connection socket (fun fd -> Client.rpc fd Proto.Stats)
   with
  | Proto.Stats_r s ->
    Alcotest.(check bool) "uptime sane" true (s.st_uptime_s >= 0.0);
    Alcotest.(check int) "fresh so far" 2 s.st_fresh;
    Alcotest.(check bool) "simulate stage counted" true
      (List.exists
         (fun (g : Proto.stage_stat) ->
           g.tg_stage = "simulate" && g.tg_count = 2)
         s.st_stages)
  | _ -> Alcotest.fail "expected stats");
  (* Graceful shutdown: Bye, then a clean drain summary. *)
  (match
     Client.with_connection socket (fun fd -> Client.rpc fd Proto.Shutdown)
   with
  | Proto.Bye -> ()
  | _ -> Alcotest.fail "expected bye");
  let s = Domain.join d in
  Alcotest.(check int) "drain saw every request" 2 s.Server.dr_requests;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket)

(* --- registration ---------------------------------------------------- *)

let () =
  Alcotest.run "serve"
    [ ( "proto",
        [ Alcotest.test_case "request round trip" `Quick
            test_request_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_malformed_requests;
          Alcotest.test_case "frame round trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "truncated frames rejected" `Quick
            test_truncated_frames;
          Alcotest.test_case "oversize frame rejected" `Quick
            test_oversize_frame;
          Alcotest.test_case "reusable reply frame" `Quick test_reply_frame ] );
      ( "server",
        [ Alcotest.test_case "malformed payload contained" `Quick
            test_handle_malformed;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7 |])
            (prop_mutated_frames ());
          Alcotest.test_case "item errors contained" `Quick
            test_item_errors_contained;
          Alcotest.test_case "in-batch dedup" `Quick test_batch_dedup;
          Alcotest.test_case "spliced replies" `Quick test_spliced_replies;
          Alcotest.test_case "decode allocation" `Quick
            test_decode_allocation;
          Alcotest.test_case "metrics op reconciles" `Quick
            test_metrics_op ] );
      ( "cache",
        [ Alcotest.test_case "restart byte-identity" `Quick
            test_restart_byte_identity;
          Alcotest.test_case "corruption detected and rebuilt" `Quick
            test_cache_corruption_recovery;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 23 |])
            (prop_cache_mutation ());
          Alcotest.test_case "disk bytes accounted" `Quick
            test_rcache_disk_bytes;
          Alcotest.test_case "failed write keeps serving" `Quick
            test_cache_write_failure;
          Alcotest.test_case "failed write removes its temp file" `Quick
            test_write_atomic_cleans_up ] );
      ( "reuse",
        [ Alcotest.test_case "replies equal own simulations" `Quick
            test_reuse_exact ] );
      ( "pipeline",
        [ Alcotest.test_case "matches direct toolchain" `Quick
            test_pipeline_matches_direct;
          Alcotest.test_case "stage control" `Quick test_pipeline_ctl;
          Alcotest.test_case "reports equal bench/baseline.json" `Quick
            test_report_contract ] );
      ( "socket",
        [ Alcotest.test_case "end to end" `Quick test_socket_end_to_end ] )
    ]
