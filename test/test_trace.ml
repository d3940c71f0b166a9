(* The observability subsystem's contract.

   The load-bearing property is the conservation invariant: the stall
   taxonomy partitions every node's lifetime exactly —

     busy + Σ stall-cause cycles = lifetime cycles

   for every node of every workload under every bundled μopt stack,
   and the aggregates must not depend on the ring size (the ring loses
   old events; the accounting must not).  On top of that: the
   exporters must produce well-formed output (the Chrome trace is
   checked with a real JSON parser), the critical path must fit inside
   the run, and the profile must be actionable — the structure it
   blames on GEMM loses its attributed stalls under the stack that
   widens it. *)

module W = Muir_workloads.Workloads
module Tr = Muir_trace.Trace
module P = Muir_trace.Profile
module Ex = Muir_trace.Export
module Pl = Muir_pipeline.Pipeline

let stacks : (string * (unit -> Muir_opt.Pass.t list)) list =
  [ ("baseline", fun () -> []);
    ("loop-stack", fun () -> Muir_opt.Stacks.loop_stack ());
    ("cilk-stack", fun () -> Muir_opt.Stacks.cilk_stack ());
    ("tensor-stack", fun () -> Muir_opt.Stacks.tensor_stack ()) ]

let traced_run ?(capacity = 1 lsl 12) (w : W.t) (passes : Muir_opt.Pass.t list)
    : Muir_core.Graph.circuit * Tr.t * Muir_sim.Sim.result =
  let p = W.program w in
  let c = Muir_core.Build.circuit ~name:w.wname p in
  ignore (Muir_opt.Pass.run_all passes c);
  (* A deliberately small ring: aggregates must be exact regardless of
     how many events were overwritten. *)
  let tracer = Tr.create ~capacity () in
  let r = Muir_sim.Sim.run ~tracer c in
  (c, tracer, r)

let test_conservation (w : W.t) () =
  List.iter
    (fun (sname, mk) ->
      let c, tracer, r = traced_run w (mk ()) in
      let prof = P.of_run c ~tracer r.counters in
      Alcotest.(check bool)
        (Fmt.str "%s/%s: profile has rows" w.wname sname)
        true
        (prof.p_rows <> []);
      List.iter
        (fun (row : P.row) ->
          if not (P.conserved row) then
            Alcotest.failf
              "%s/%s: node %s n%d violates conservation: Σcauses=%d span=%d"
              w.wname sname row.r_tname row.r_node
              (Array.fold_left ( + ) 0 row.r_acc)
              row.r_span)
        prof.p_rows;
      (* Every firing the kernel counted is attributed to some node. *)
      let total_fires =
        List.fold_left (fun acc (row : P.row) -> acc + row.r_fires) 0
          prof.p_rows
      in
      Alcotest.(check int)
        (Fmt.str "%s/%s: attributed fires == kernel fires" w.wname sname)
        r.stats.fires total_fires)
    stacks

(* Aggregates must not depend on ring retention. *)
let test_ring_independence () =
  let w = W.find "gemm" in
  let _, tr_small, r_small = traced_run ~capacity:16 w [] in
  let c, tr_big, r_big = traced_run ~capacity:(1 lsl 20) w [] in
  Alcotest.(check bool)
    "small ring overwrote events" true
    (Tr.retained_events tr_small < Tr.total_events tr_small);
  Alcotest.(check int)
    "same total events" (Tr.total_events tr_big)
    (Tr.total_events tr_small);
  let ps = P.of_run c ~tracer:tr_small r_small.counters
  and pb = P.of_run c ~tracer:tr_big r_big.counters in
  List.iter2
    (fun (a : P.row) (b : P.row) ->
      Alcotest.(check int)
        (Fmt.str "fires of %s n%d" a.r_tname a.r_node)
        b.r_fires a.r_fires;
      Alcotest.(check (array int))
        (Fmt.str "causes of %s n%d" a.r_tname a.r_node)
        b.r_acc a.r_acc)
    ps.p_rows pb.p_rows

(* ------------------------------------------------------------------ *)
(* A small strict JSON parser — enough to prove the Chrome export is
   well-formed without trusting the producer's own escaping. *)

exception Bad_json of string

let parse_json (s : string) : unit =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Fmt.str "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect ch =
    match peek () with
    | Some c when c = ch -> advance ()
    | _ -> fail (Fmt.str "expected %c" ch)
  in
  let literal word =
    String.iter (fun c -> expect c) word
  in
  let parse_string () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
          advance ();
          go ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done;
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let parse_number () =
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let saw = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          saw := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !saw then fail "expected digit"
    in
    digits ();
    (match peek () with
    | Some '.' ->
      advance ();
      digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let rec members () =
          skip_ws ();
          parse_string ();
          skip_ws ();
          expect ':';
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ()
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let rec elements () =
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ()
      end
    | Some '"' -> parse_string ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "expected a value"
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let test_chrome_export () =
  List.iter
    (fun name ->
      let w = W.find name in
      let c, tracer, _ = traced_run ~capacity:(1 lsl 16) w [] in
      let json = Ex.chrome c tracer in
      (try parse_json json with
      | Bad_json msg -> Alcotest.failf "%s: invalid Chrome JSON: %s" name msg);
      Alcotest.(check bool)
        (name ^ ": has traceEvents") true
        (String.length json > 20
        && String.sub json 0 15 = "{\"traceEvents\":"))
    [ "saxpy"; "gemm"; "fib" ]

(* Hostile names: a circuit name and node labels stuffed with every
   character class RFC 8259 forces us to escape.  The Chrome export
   must still pass the strict parser above (which rejects raw control
   characters and bad escapes), and the library's own Json module must
   round-trip the strings exactly. *)
let hostile = "ev\"il\\na\nme\twith\r\bctrl\x01\x1f/end"

let test_hostile_names () =
  let w = W.find "saxpy" in
  let p = W.program w in
  let c = Muir_core.Build.circuit ~name:hostile p in
  Muir_core.Graph.iter_tasks
    (fun (t : Muir_core.Graph.task) ->
      List.iter
        (fun (n : Muir_core.Graph.node) -> n.label <- hostile)
        t.nodes)
    c;
  let tracer = Tr.create ~capacity:(1 lsl 16) () in
  ignore (Muir_sim.Sim.run ~tracer c);
  let json = Ex.chrome c tracer in
  (try parse_json json with
  | Bad_json msg ->
    Alcotest.failf "hostile names broke the Chrome JSON: %s" msg);
  (* And the escape really is lossless, not merely parseable. *)
  let module J = Muir_trace.Json in
  match J.parse (J.to_string (J.Str hostile)) with
  | J.Str s -> Alcotest.(check string) "escape round-trips" hostile s
  | _ -> Alcotest.fail "string did not parse back as a string"

(* --- the JSON layer's input surface ---------------------------------- *)

module J = Muir_trace.Json

(* [s] is refused with exactly [msg], offset included: callers quote
   these messages, so they are part of the parser's contract. *)
let rejects (label : string) (s : string) (msg : string) =
  match J.parse s with
  | _ -> Alcotest.failf "%s: accepted %S" label s
  | exception J.Parse_error m -> Alcotest.(check string) label msg m

let nested depth = String.make depth '[' ^ String.make depth ']'

let test_json_nesting_cap () =
  (match J.parse (nested J.max_depth) with
  | J.Arr [ _ ] -> ()
  | _ -> Alcotest.fail "the cap depth did not parse as an array");
  rejects "one level past the cap" (nested (J.max_depth + 1))
    "nesting too deep at offset 512";
  let objects d =
    String.concat "" (List.init d (fun _ -> {|{"k":|}))
    ^ "0" ^ String.make d '}'
  in
  ignore (J.parse (objects J.max_depth));
  rejects "objects past the cap" (objects (J.max_depth + 1))
    "nesting too deep at offset 2560";
  rejects "unclosed brackets" (String.make 100_000 '[')
    "nesting too deep at offset 512"

let test_json_rfc8259 () =
  let str s =
    match J.parse s with
    | J.Str v -> v
    | _ -> Alcotest.failf "%S did not parse as a string" s
  in
  Alcotest.(check string) "surrogate pair is 4-byte UTF-8" "\xF0\x9F\x98\x80"
    (str {|"\ud83d\ude00"|});
  Alcotest.(check string) "BMP escape" "a\xC3\xA9\xE2\x9C\x93"
    (str {|"a\u00e9\u2713"|});
  rejects "lone high surrogate" {|"\ud83d"|}
    "lone high surrogate at offset 7";
  rejects "high surrogate then text" {|"\ud83dx"|}
    "lone high surrogate at offset 7";
  rejects "high surrogate then a non-low escape" {|"\ud83d\u0041"|}
    "lone high surrogate at offset 13";
  rejects "lone low surrogate" {|"\ude00"|} "lone low surrogate at offset 7";
  rejects "leading zero" "01" "leading zero at offset 1";
  rejects "negative leading zero" "-01" "leading zero at offset 2";
  rejects "double zero" "[00]" "leading zero at offset 2";
  (* Numbers at the edges of the integer path: up to 18 digits are
     accumulated, longer ones go through [int_of_string], and one past
     [max_int] is a float.  Floats compare by bits, so [-0] is told
     from [0]. *)
  let same a b =
    match (a, b) with
    | J.Float x, J.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
    | _ -> a = b
  in
  List.iter
    (fun (s, v) ->
      Alcotest.(check bool) (s ^ " accepted") true (same (J.parse s) v))
    [ ("0", J.Int 0); ("10", J.Int 10); ("0.5", J.Float 0.5);
      ("-0.5e1", J.Float (-5.0)); ("0e0", J.Float 0.0);
      ("123456789012345678", J.Int 123456789012345678);
      ("-123456789012345678", J.Int (-123456789012345678));
      ("1234567890123456789", J.Int 1234567890123456789);
      ("-1234567890123456789", J.Int (-1234567890123456789));
      (string_of_int max_int, J.Int max_int);
      (string_of_int min_int, J.Int min_int);
      ("4611686018427387904", J.Float 4611686018427387904.);
      ("-0", J.Float (-0.)); ("-0.0", J.Float (-0.));
      ("1E5", J.Float 100000.) ];
  (* Today's errors stay errors, each with its message. *)
  List.iter
    (fun (s, msg) -> rejects "malformed" s msg)
    [ ("", "expected a value at offset 0");
      (" ", "expected a value at offset 1");
      ("[1,]", "expected a value at offset 3");
      ("[1 2]", "expected , or ] at offset 3");
      ({|{"a" 1}|}, "expected ':' at offset 5");
      ({|{"a":1,}|}, "expected '\"' at offset 7");
      ({|{1:2}|}, "expected '\"' at offset 1");
      ({|"abc|}, "unterminated string at offset 4");
      ("\"a\x01\"", "raw control char in string at offset 2");
      ({|"\x"|}, "bad escape at offset 2");
      ({|"\u12G4"|}, "bad \\u escape at offset 5");
      ({|"\u12|}, "bad \\u escape at offset 5");
      ("tru", "expected 'e' at offset 3");
      ("nul", "expected 'l' at offset 3");
      ("1.", "expected digit at offset 2");
      ("-", "expected digit at offset 1");
      ("1e", "expected digit at offset 2");
      ("1e+", "expected digit at offset 3");
      (".5", "expected a value at offset 0");
      ("+1", "expected a value at offset 0");
      ("[1] x", "trailing garbage at offset 4");
      ("{}}", "trailing garbage at offset 2") ]

(* RFC 8259 text is UTF-8: the parser rejects a malformed sequence with
   an error that quotes none of its bytes, in plain and escaped strings
   alike, and accepts well-formed 2-, 3- and 4-byte characters.  The
   printer never emits malformed UTF-8: it prints U+FFFD in its place. *)
let test_json_utf8 () =
  let str s =
    match J.parse s with
    | J.Str v -> v
    | _ -> Alcotest.failf "%S did not parse as a string" s
  in
  List.iter
    (fun (label, bytes) ->
      List.iter
        (fun s ->
          match J.parse s with
          | _ -> Alcotest.failf "%s: accepted %S" label s
          | exception J.Parse_error msg ->
            Alcotest.(check bool)
              (label ^ ": message is ASCII") true
              (String.for_all (fun c -> Char.code c < 0x80) msg))
        [ "\"" ^ bytes ^ "\""; "\"a\\n" ^ bytes ^ "b\"";
          "{\"" ^ bytes ^ "\":1}" ])
    [ ("lone continuation byte", "\x80");
      ("truncated 2-byte sequence", "\xC3");
      ("truncated 3-byte sequence", "\xE2\x9C");
      ("overlong encoding of /", "\xC0\xAF");
      ("overlong 3-byte encoding", "\xE0\x80\xAF");
      ("encoded surrogate", "\xED\xA0\x80");
      ("lead byte past U+10FFFF", "\xF5\x80\x80\x80");
      ("lead byte 0xFF", "\xFF") ];
  List.iter
    (fun (label, bytes) ->
      Alcotest.(check string) label bytes (str ("\"" ^ bytes ^ "\""));
      Alcotest.(check string) (label ^ " after an escape") ("\n" ^ bytes)
        (str ("\"\\n" ^ bytes ^ "\"")))
    [ ("2-byte character", "\xC3\xA9"); ("3-byte character", "\xE2\x9C\x93");
      ("4-byte character", "\xF0\x9F\x98\x80") ];
  Alcotest.(check string) "malformed bytes print as U+FFFD"
    "\"a\xEF\xBF\xBDb\xC3\xA9\""
    (J.to_string (J.Str "a\xF2b\xC3\xA9"))

(* [-0] prints as "-0"; it must read back as the float that prints it,
   or the re-print drops the sign. *)
let test_json_negative_zero () =
  Alcotest.(check string) "prints -0" "-0" (J.to_string (J.Float (-0.)));
  match J.parse "-0" with
  | J.Float f ->
    Alcotest.(check bool) "negative zero" true (1.0 /. f = Float.neg_infinity)
  | _ -> Alcotest.fail "-0 did not parse as a float"

(* Trees with every string and number class the printer must escape or
   spell: control characters, quote and backslash, raw non-ASCII bytes
   (valid UTF-8 or not), integer extremes, subnormal and huge floats,
   signed zeros and non-finite values. *)
let gen_json : J.t QCheck.Gen.t =
  let open QCheck.Gen in
  let char =
    frequency
      [ (4, char_range 'a' 'z');
        (2, map Char.chr (int_range 0 0x1f));
        (2, oneofl [ '"'; '\\'; '/'; ' '; '\x7f' ]);
        (2, map Char.chr (int_range 0x80 0xff)) ]
  in
  let str =
    oneof
      [ string_size ~gen:char (int_range 0 12);
        oneofl [ "\xF0\x9F\x98\x80"; "\xED\xA0\xBD"; "\xC3\xA9"; "" ] ]
  in
  let subnormal =
    map2
      (fun neg bits ->
        let f = Int64.float_of_bits (Int64.of_int bits) in
        if neg then -.f else f)
      bool
      (int_range 1 ((1 lsl 52) - 1))
  in
  let float =
    oneof
      [ float; subnormal;
        oneofl
          [ 0.0; -0.0; 5e-324; 2.2250738585072014e-308; Float.max_float;
            1e21; 0.1; 1e15; 123456789012.0; 12345678901234567.0;
            Float.nan; Float.infinity; Float.neg_infinity ] ]
  in
  let int = oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ] in
  let leaf =
    frequency
      [ (1, return J.Null); (1, map (fun b -> J.Bool b) bool);
        (3, map (fun i -> J.Int i) int); (3, map (fun f -> J.Float f) float);
        (3, map (fun s -> J.Str s) str) ]
  in
  sized
    (fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [ (2, leaf);
               ( 1,
                 map
                   (fun xs -> J.Arr xs)
                   (list_size (int_range 0 4) (self (n / 3))) );
               ( 1,
                 map
                   (fun kvs -> J.Obj kvs)
                   (list_size (int_range 0 4) (pair str (self (n / 3)))) ) ]))

(* The invariant the serve daemon's splicing rests on: printing a
   parsed printout reproduces it byte for byte. *)
let prop_json_reprint =
  QCheck.Test.make ~count:1000
    ~name:"to_string (parse (to_string v)) = to_string v"
    (QCheck.make ~print:J.to_string gen_json)
    (fun v ->
      let p = J.to_string v in
      J.to_string (J.parse p) = p)

let count_substring (hay : string) (needle : string) : int =
  let nl = String.length needle in
  let rec go from acc =
    if from + nl > String.length hay then acc
    else if String.sub hay from nl = needle then go (from + nl) (acc + 1)
    else go (from + 1) acc
  in
  go 0 0

let test_vcd_export () =
  let w = W.find "saxpy" in
  let c, tracer, _ = traced_run ~capacity:(1 lsl 16) w [] in
  let vcd = Ex.vcd c tracer in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        ("vcd contains " ^ needle)
        true
        (count_substring vcd needle > 0))
    [ "$timescale"; "$enddefinitions"; "#0"; "$var wire 1" ];
  Alcotest.(check int)
    "balanced scopes"
    (count_substring vcd "$scope module")
    (count_substring vcd "$upscope")

let test_critical_path () =
  List.iter
    (fun name ->
      let w = W.find name in
      let c, tracer, r = traced_run ~capacity:(1 lsl 18) w [] in
      let prof = P.of_run c ~tracer r.counters in
      match prof.p_crit with
      | None -> Alcotest.failf "%s: no critical path" name
      | Some cr ->
        Alcotest.(check bool)
          (name ^ ": path has firings") true (cr.c_events > 0);
        Alcotest.(check bool)
          (name ^ ": path fits inside the run")
          true
          (cr.c_len >= 0 && cr.c_len <= r.stats.cycles);
        List.iter
          (fun (s : P.crit_step) ->
            if s.cs_count <= 0 || s.cs_lat < 0 || s.cs_wait < 0 then
              Alcotest.failf "%s: bad step for %s n%d" name s.cs_tname
                s.cs_node)
          cr.c_steps)
    [ "gemm"; "saxpy"; "fib" ]

(* The profile must be actionable: the task queue it blames on GEMM
   stops stalling once the loop stack deepens/tiles it. *)
let test_bottleneck_reduction () =
  let w = W.find "gemm" in
  let c0, tr0, r0 = traced_run w [] in
  let p0 = P.of_run c0 ~tracer:tr0 r0.counters in
  let blamed =
    match List.find_opt (fun (s : P.struct_row) -> s.s_stalls > 0) p0.p_structs with
    | Some s -> s
    | None -> Alcotest.fail "baseline gemm blames no structure"
  in
  let share0 = P.struct_share p0 blamed.s_name in
  Alcotest.(check bool) "baseline share positive" true (share0 > 0.0);
  let c1, tr1, r1 = traced_run w (Muir_opt.Stacks.loop_stack ()) in
  let p1 = P.of_run c1 ~tracer:tr1 r1.counters in
  let share1 = P.struct_share p1 blamed.s_name in
  if share1 >= share0 then
    Alcotest.failf "loop stack did not reduce %s stall share: %.4f -> %.4f"
      blamed.s_name share0 share1

let conservation_cases =
  List.map
    (fun (w : W.t) ->
      Alcotest.test_case w.wname `Quick (test_conservation w))
    W.all

(* The tracer's event stream, pinned.  bench/baseline.json pins the
   counter banks but not the events the timelines and waveforms are
   built from: these are digests of the Chrome and VCD exports that
   [muirc profile] writes (default ring), under baseline and the
   per-category stack. *)
let export_golden =
  [
    ("fib", "baseline", "3051581a4e5cac5777b8f9110af32f29",
      "69965ba0138f37adf3f5743a09b676d0");
    ("fib", "per-category", "05e8c2844236d7cd74f4406d1030831b",
      "83d81c7e2b4ff2516ca5d253c1ffa61d");
    ("msort", "baseline", "9d6c99b4b3f041cd686f383ba176f18d",
      "eaf6e9101bca385c013dd490dfc54754");
    ("msort", "per-category", "38eba0e9180ff42b0b9070d6f68fff45",
      "569ad76ada22e7ff9ef02ad9086b32a6");
    ("saxpy", "baseline", "3d0a3e10011fc0ce1196bb040bd567b4",
      "de1971c8af16d900e183efbf5db9e335");
    ("saxpy", "per-category", "de490112c111c16b7bdd876c21664358",
      "08ee3c9290d679e998beb945ce5a0140");
    ("conv[T]", "baseline", "9939e1082246e2f5a2d53b63fb48e6a2",
      "9a9157b562d9e40a57b729e35e5b5339");
    ("conv[T]", "per-category", "324016b115e4147a4800bf3383add67c",
      "f796e9b73d846c04760f1e7f7b81e3c3");
    ("mlp", "baseline", "b36f95a3aced6b52faeac8b818f52323",
      "829190d02067acf2d5bb3e4511db80ed");
    ("mlp", "per-category", "a471a05ca1b05ff26e670f3830874d1d",
      "f2e8c5ed1f1ca7605aef3a411e3ec700") ]

let test_export_golden () =
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (name, stack, chrome, vcd) ->
      let w = W.find name in
      let passes = if stack = "baseline" then [] else Pl.per_category w in
      let b = Pl.build ~passes (Pl.of_workload w) in
      let tracer = Tr.create () in
      ignore (Pl.simulate ~tracer b);
      let c = b.Pl.p_circuit and ctx = name ^ "/" ^ stack in
      Alcotest.(check string)
        (ctx ^ " chrome") chrome
        (md5 (Ex.chrome c tracer));
      Alcotest.(check string) (ctx ^ " vcd") vcd (md5 (Ex.vcd c tracer)))
    export_golden

let () =
  Alcotest.run "trace"
    [ ("conservation", conservation_cases);
      ( "machinery",
        [ Alcotest.test_case "ring independence" `Quick
            test_ring_independence;
          Alcotest.test_case "chrome export" `Quick test_chrome_export;
          Alcotest.test_case "hostile names" `Quick test_hostile_names;
          Alcotest.test_case "vcd export" `Quick test_vcd_export;
          Alcotest.test_case "export digests" `Quick test_export_golden;
          Alcotest.test_case "critical path" `Quick test_critical_path;
          Alcotest.test_case "bottleneck reduction" `Quick
            test_bottleneck_reduction ] );
      ( "json",
        [ Alcotest.test_case "nesting cap" `Quick test_json_nesting_cap;
          Alcotest.test_case "RFC 8259 strings and numbers" `Quick
            test_json_rfc8259;
          Alcotest.test_case "negative zero" `Quick test_json_negative_zero;
          Alcotest.test_case "UTF-8" `Quick test_json_utf8;
          QCheck_alcotest.to_alcotest prop_json_reprint ] ) ]
