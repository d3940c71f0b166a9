(* The command-line surface fails with a structured error, never an
   uncaught exception: every subcommand that resolves a workload name
   rejects an unknown one with exit code 2, lists the valid names on
   standard error, and documents that code in its EXIT STATUS.  Report
   files that cannot be read, output paths that cannot be written and
   daemon paths that cannot be opened also exit 2, with one line naming
   the file; an output path fails before the work that would fill it.
   A source the frontend rejects exits 1 with one line naming the file
   and the position.  A malformed option value is cmdliner's usage
   error, 124.  Flags reach bundled workloads as they reach source
   files. *)

let muirc = Filename.concat (Filename.concat Filename.parent_dir_name "bin")
    "muirc.exe"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Run muirc with [args]; returns the exit code and the combined
   standard output and error. *)
let muirc_run (args : string list) : int * string =
  let out = Filename.temp_file "muirc" ".out" in
  let code =
    Sys.command (Filename.quote_command muirc args ~stdout:out ~stderr:out)
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let commands = [ "workload"; "simulate"; "check"; "profile"; "explore"; "dot" ]

let test_unknown_workload cmd () =
  let code, text = muirc_run [ cmd; "nosuch" ] in
  Alcotest.(check int) (cmd ^ " nosuch: exit code") 2 code;
  List.iter
    (fun needle ->
      if not (contains text needle) then
        Alcotest.failf "%s nosuch: output lacks %S:@.%s" cmd needle text)
    [ "unknown target nosuch"; "gemm"; "lenet" ];
  if contains text "exception" then
    Alcotest.failf "%s nosuch: uncaught exception:@.%s" cmd text

let test_exit_status_documented cmd () =
  let code, text = muirc_run [ cmd; "--help=plain" ] in
  Alcotest.(check int) (cmd ^ " --help: exit code") 0 code;
  if not (contains text "on an unknown workload name") then
    Alcotest.failf "%s --help: EXIT STATUS does not document code 2:@.%s" cmd
      text

(* Run [args] and require exit 2 with a one-line reason naming [file],
   and none of the [absent] output. *)
let expect_file_error ?(absent = []) (args : string list) (file : string) =
  let code, text = muirc_run args in
  let what = String.concat " " args in
  Alcotest.(check int) (what ^ ": exit code") 2 code;
  if not (contains text file) then
    Alcotest.failf "%s: output does not name %s:@.%s" what file text;
  List.iter
    (fun needle ->
      if contains text needle then
        Alcotest.failf "%s: printed %S before failing:@.%s" what needle text)
    ("exception" :: absent)

(* profile --diff on a report file holding [contents] (None: no file) *)
let test_diff_input contents () =
  let f = Filename.temp_file "muirc" ".json" in
  (match contents with
  | None -> Sys.remove f
  | Some s -> Out_channel.with_open_bin f (fun oc -> output_string oc s));
  expect_file_error [ "profile"; "--diff"; f; f ] f;
  if Sys.file_exists f then Sys.remove f

let test_json_unwritable () =
  (* a regular file used as a directory: never writable *)
  let d = Filename.temp_file "muirc" ".json" in
  let f = Filename.concat d "x.json" in
  expect_file_error [ "profile"; "saxpy"; "--json"; f ] f;
  Sys.remove d

(* [args] with an unwritable [--json] path fail before printing any of
   [work]. *)
let test_json_before_work (args, work) () =
  let d = Filename.temp_file "muirc" ".json" in
  let f = Filename.concat d "x.json" in
  expect_file_error ~absent:work (args @ [ "--json"; f ]) f;
  Sys.remove d

let test_unknown_strategy () =
  let code, text = muirc_run [ "explore"; "saxpy"; "--strategy"; "bogus" ] in
  Alcotest.(check int) "explore --strategy bogus: exit code" 124 code;
  List.iter
    (fun needle ->
      if not (contains text needle) then
        Alcotest.failf "explore --strategy bogus: output lacks %S:@.%s" needle
          text)
    [ "bogus"; "grid"; "greedy" ]

(* [cmd]'s EXIT STATUS documents its file errors ([needle]). *)
let test_file_exit_documented (cmd, needle) () =
  let _, text = muirc_run [ cmd; "--help=plain" ] in
  if not (contains text needle) then
    Alcotest.failf "%s --help: EXIT STATUS lacks the file errors:@.%s" cmd
      text

(* A path whose directory does not exist. *)
let missing_dir_path (name : string) : string =
  let d = Filename.temp_file "muirc" ".d" in
  Sys.remove d;
  Filename.concat d name

(* [serve] with [flags] must fail on [path] before the daemon listens.
   The socket is unbindable too, so a daemon that got past a bad path
   would fail on the socket instead of listening. *)
let expect_serve_error ?(socket = missing_dir_path "s.sock") flags path =
  expect_file_error ([ "serve"; "--socket"; socket ] @ flags) path

let test_serve_log () =
  let f = missing_dir_path "log" in
  expect_serve_error [ "--log-json"; f ] f

let test_serve_cache_file () =
  let f = Filename.temp_file "muirc" ".cache" in
  expect_serve_error [ "--cache-dir"; f ] f;
  Sys.remove f

let test_serve_cache_parent () =
  let d = missing_dir_path "cache" in
  expect_serve_error [ "--cache-dir"; d ] d

let test_serve_socket () =
  let s = missing_dir_path "s.sock" in
  expect_serve_error ~socket:s [] s

let test_client_batch () =
  let f = missing_dir_path "batch.json" in
  expect_file_error [ "client"; "--batch"; f ] f

(* Every command that compiles a source file: a source the frontend
   rejects exits 1 with one line naming the file and the position, and
   the command's EXIT STATUS documents that code. *)
let frontend_commands =
  [ "ir"; "graph"; "dot"; "check"; "chisel"; "simulate"; "profile";
    "explore"; "synth" ]

let test_rejected_source cmd () =
  let f = Filename.temp_file "muirc" ".mc" in
  Out_channel.with_open_bin f (fun oc ->
      output_string oc "func int main() { return 1 + ; }\n");
  let code, text = muirc_run [ cmd; f ] in
  Sys.remove f;
  Alcotest.(check int) (cmd ^ " on a rejected source: exit code") 1 code;
  if not (contains text (f ^ ": parse error at 1:")) then
    Alcotest.failf "%s: error line does not name %s and the position:@.%s"
      cmd f text;
  if contains text "exception" then
    Alcotest.failf "%s: uncaught exception:@.%s" cmd text;
  let _, help = muirc_run [ cmd; "--help=plain" ] in
  let words = String.concat " " (String.split_on_char '\n' help) in
  let squashed =
    String.concat " "
      (List.filter (( <> ) "") (String.split_on_char ' ' words))
  in
  if not (contains squashed "on a source the frontend rejects") then
    Alcotest.failf "%s --help: EXIT STATUS does not document code 1:@.%s" cmd
      help

let test_unroll_workload () =
  let code, text = muirc_run [ "simulate"; "gemm"; "-U" ] in
  Alcotest.(check int) "simulate gemm -U: exit code" 0 code;
  if not (contains text "= 19817") then
    Alcotest.failf "simulate gemm -U: expected 19817 cycles:@.%s" text

let () =
  Alcotest.run "cli"
    [ ( "unknown workload",
        List.map
          (fun cmd -> Alcotest.test_case cmd `Quick (test_unknown_workload cmd))
          commands );
      ( "exit status documented",
        List.map
          (fun cmd ->
            Alcotest.test_case cmd `Quick (test_exit_status_documented cmd))
          commands );
      ( "report files",
        [ Alcotest.test_case "diff: missing file" `Quick
            (test_diff_input None);
          Alcotest.test_case "diff: malformed JSON" `Quick
            (test_diff_input (Some "{"));
          Alcotest.test_case "diff: no runs" `Quick
            (test_diff_input (Some {|{"x":1}|}));
          Alcotest.test_case "json: unwritable path" `Quick
            test_json_unwritable;
          Alcotest.test_case "exit status documented" `Quick
            (test_file_exit_documented ("profile", "cannot be written"));
          Alcotest.test_case "explore: fails before the work" `Quick
            (test_json_before_work
               ([ "explore"; "saxpy" ], [ "design space"; "best:" ]));
          Alcotest.test_case "check: fails before the work" `Quick
            (test_json_before_work
               ([ "check"; "saxpy" ], [ "warning"; "error(s)" ])) ]
        @ List.map
            (fun cmd ->
              Alcotest.test_case (cmd ^ ": exit status documented") `Quick
                (test_file_exit_documented (cmd, "cannot be written")))
            [ "explore"; "check"; "dot"; "chisel"; "graph" ] );
      ( "options",
        [ Alcotest.test_case "explore: unknown strategy" `Quick
            test_unknown_strategy ] );
      ( "daemon paths",
        [ Alcotest.test_case "serve: log file" `Quick test_serve_log;
          Alcotest.test_case "serve: cache dir is a file" `Quick
            test_serve_cache_file;
          Alcotest.test_case "serve: cache dir parent missing" `Quick
            test_serve_cache_parent;
          Alcotest.test_case "serve: socket" `Quick test_serve_socket;
          Alcotest.test_case "client: batch file" `Quick test_client_batch;
          Alcotest.test_case "serve: exit status documented" `Quick
            (test_file_exit_documented ("serve", "cannot be used"));
          Alcotest.test_case "client: exit status documented" `Quick
            (test_file_exit_documented ("client", "cannot be read")) ] );
      ( "rejected source",
        List.map
          (fun cmd -> Alcotest.test_case cmd `Quick (test_rejected_source cmd))
          frontend_commands );
      ( "workload flags",
        [ Alcotest.test_case "simulate gemm -U" `Quick test_unroll_workload ]
      ) ]
