(* The command-line surface fails with a structured error, never an
   uncaught exception: every subcommand that resolves a workload name
   rejects an unknown one with exit code 2, lists the valid names on
   standard error, and documents that code in its EXIT STATUS.  Sources
   and report files that cannot be read, output paths that cannot be
   written and daemon paths that cannot be opened also exit 2, with one
   line naming the file; an output path fails before the work that would
   fill it.
   A source the frontend rejects exits 1 with one line naming the file
   and the position.  A malformed option value is cmdliner's usage
   error, 124: so are a tile or bank count out of range, a domain or
   queue count below 1 and a refresh period that is not a positive
   number of seconds.  Flags reach bundled workloads as they reach
   source files. *)

let muirc = Filename.concat (Filename.concat Filename.parent_dir_name "bin")
    "muirc.exe"

(* Run muirc with [args]; returns the exit code and the combined
   standard output and error. *)
let muirc_run (args : string list) : int * string =
  let out = Filename.temp_file "muirc" ".out" in
  let code =
    Sys.command (Filename.quote_command muirc args ~stdout:out ~stderr:out)
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let commands =
  [ "workload"; "simulate"; "check"; "profile"; "explore"; "dot"; "ir";
    "chisel"; "synth" ]

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

(* [args] fail with cmdliner's usage error, 124: one error line that
   names [needle], then the usage hint, and no uncaught exception. *)
let expect_usage_error (args : string list) (needle : string) () =
  let code, text = muirc_run args in
  let what = String.concat " " args in
  Alcotest.(check int) (what ^ ": exit code") 124 code;
  (match String.split_on_char '\n' text with
  | first :: second :: _ ->
    if not (contains first needle) then
      Alcotest.failf "%s: error line does not name %s:@.%s" what needle text;
    if not (contains second "Usage:") then
      Alcotest.failf "%s: error is not one line:@.%s" what text
  | _ -> Alcotest.failf "%s: no usage error:@.%s" what text);
  if contains text "exception" then
    Alcotest.failf "%s: uncaught exception:@.%s" what text

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

(* [top --once] on a socket no daemon listens on exits 2 with one line
   naming the socket. *)
let test_top_unreachable () =
  let s = missing_dir_path "s.sock" in
  expect_file_error [ "top"; "--once"; s ] s;
  let _, text = muirc_run [ "top"; "--once"; s ] in
  Alcotest.(check int) "top --once: lines printed" 1
    (List.length (String.split_on_char '\n' (String.trim text)))

(* A socket that accepts each connection and closes it at once, as a
   daemon that died mid-session would; [f] gets its path.  The listener
   is a child process, killed when [f] returns. *)
let with_closing_listener (f : string -> unit) =
  let path = missing_dir_path "s.sock" in
  Unix.mkdir (Filename.dirname path) 0o700;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  match Unix.fork () with
  | 0 ->
    (try
       while true do
         Unix.close (fst (Unix.accept sock))
       done
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close sock;
    Fun.protect
      ~finally:(fun () ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Sys.remove path;
        Unix.rmdir (Filename.dirname path))
      (fun () -> f path)

(* A daemon that closes the connection gets exit 2 and one line, never
   death by SIGPIPE.  Whether the close lands before the request's write
   (which then meets a closed pipe) or after it (a read error) is a
   race, so each command runs a few times. *)
let test_closed_connection () =
  with_closing_listener (fun s ->
      List.iter
        (fun args ->
          let what = String.concat " " args in
          for _ = 1 to 4 do
            let code, text = muirc_run args in
            Alcotest.(check int) (what ^ ": exit code") 2 code;
            Alcotest.(check int) (what ^ ": lines printed") 1
              (List.length (String.split_on_char '\n' (String.trim text)))
          done)
        [ [ "client"; "--socket"; s; "--stats" ];
          [ "client"; "--socket"; s; "gemm" ]; [ "top"; "--once"; s ] ])

(* Every command that compiles a source file: a source the frontend
   rejects exits 1 with one line naming the file and the position, and
   the command's EXIT STATUS documents that code. *)
let frontend_commands =
  [ "ir"; "graph"; "dot"; "check"; "chisel"; "simulate"; "profile";
    "explore"; "synth" ]

(* Rejected sources and the start of the error each must print: a
   syntax error, a malformed float literal, an int literal that does
   not fit 64 bits and a function defined twice. *)
let rejected_sources =
  [ ("func int main() { return 1 + ; }\n", "parse error at 1:");
    ("func void main() { float x = 1e; }\n", "lex error at 1:30");
    ("func void main() { int x = 99999999999999999999; }\n",
     "lex error at 1:28");
    ("func void f() { }\nfunc void f() { }\nfunc void main() { }\n",
     "type error at 2:1") ]

(* [s] with its line breaks and runs of spaces made single spaces. *)
let squash s =
  String.split_on_char ' ' (String.concat " " (String.split_on_char '\n' s))
  |> List.filter (( <> ) "")
  |> String.concat " "

let test_rejected_source cmd () =
  List.iter
    (fun (src, want) ->
      let f = Filename.temp_file "muirc" ".mc" in
      Out_channel.with_open_bin f (fun oc -> output_string oc src);
      let code, text = muirc_run [ cmd; f ] in
      Sys.remove f;
      Alcotest.(check int) (cmd ^ " on a rejected source: exit code") 1 code;
      if not (contains text (f ^ ": " ^ want)) then
        Alcotest.failf "%s: error line does not name %s and %s:@.%s" cmd f
          want text;
      Alcotest.(check int) (cmd ^ ": lines printed") 1
        (List.length (String.split_on_char '\n' (String.trim text)));
      if contains text "exception" then
        Alcotest.failf "%s: uncaught exception:@.%s" cmd text)
    rejected_sources;
  let _, help = muirc_run [ cmd; "--help=plain" ] in
  if not (contains (squash help) "on a source the frontend rejects") then
    Alcotest.failf "%s --help: EXIT STATUS does not document code 1:@.%s" cmd
      help

(* A directory given as the source ([args] then the directory): exit 2
   with one line naming it, and the EXIT STATUS documents that code
   ([doc]). *)
let test_directory_source ?(doc = "on a source that cannot be read") args
    () =
  let d = Filename.temp_dir "muirc" ".mc" in
  let code, text = muirc_run (args @ [ d ]) in
  Sys.rmdir d;
  let what = String.concat " " args ^ " DIR" in
  Alcotest.(check int) (what ^ ": exit code") 2 code;
  Alcotest.(check int) (what ^ ": lines printed") 1
    (List.length (String.split_on_char '\n' (String.trim text)));
  if not (contains text d) || contains text "exception" then
    Alcotest.failf "%s: not one line naming %s:@.%s" what d text;
  let _, help = muirc_run [ List.hd args; "--help=plain" ] in
  if not (contains (squash help) doc) then
    Alcotest.failf "%s --help: EXIT STATUS does not document code 2:@.%s"
      what help

(* [workload --list] needs no NAME: one line per bundled workload. *)
let test_workload_list () =
  let code, text = muirc_run [ "workload"; "--list" ] in
  Alcotest.(check int) "workload --list: exit code" 0 code;
  Alcotest.(check int) "workload --list: lines printed" 24
    (List.length (String.split_on_char '\n' (String.trim text)))

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
          Alcotest.test_case "diff: float in an integer field" `Quick
            (test_diff_input
               (Some {|{"run":{"workload":"w","stack":"s","cycles":1e300}}|}));
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
            test_unknown_strategy;
          Alcotest.test_case "-O cache-bank=0" `Quick
            (expect_usage_error
               [ "simulate"; "saxpy"; "-O"; "cache-bank=0" ]
               "cache-banking");
          Alcotest.test_case "-O tiling=0" `Quick
            (expect_usage_error [ "simulate"; "saxpy"; "-O"; "tiling=0" ]
               "execution-tiling");
          Alcotest.test_case "workload --list" `Quick test_workload_list;
          Alcotest.test_case "workload without a NAME" `Quick
            (expect_usage_error [ "workload" ] "NAME");
          Alcotest.test_case "explore --jobs 0" `Quick
            (expect_usage_error
               [ "explore"; "saxpy"; "--jobs"; "0"; "--budget-evals"; "1" ]
               "--jobs") ]
        (* The socket is unbindable too: a daemon that got past the
           count would fail on the socket instead of listening. *)
        @ List.map
            (fun (flag, v) ->
              Alcotest.test_case ("serve " ^ flag ^ "=" ^ v) `Quick
                (expect_usage_error
                   [ "serve"; "--socket"; missing_dir_path "s.sock";
                     flag ^ "=" ^ v ]
                   flag))
            [ ("--queue", "0"); ("--queue", "-1"); ("--jobs", "0") ]
        @ List.map
            (fun v ->
              Alcotest.test_case ("top --interval=" ^ v) `Quick
                (expect_usage_error
                   [ "top"; missing_dir_path "s.sock"; "--once";
                     "--interval=" ^ v ]
                   "--interval"))
            [ "nan"; "inf"; "0"; "-1" ] );
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
            (test_file_exit_documented ("client", "cannot be read"));
          Alcotest.test_case "top: unreachable socket" `Quick
            test_top_unreachable;
          Alcotest.test_case "closed connection" `Quick
            test_closed_connection;
          Alcotest.test_case "top: exit status documented" `Quick
            (test_file_exit_documented ("top", "daemon is unreachable"))
        ] );
      ( "rejected source",
        List.map
          (fun cmd -> Alcotest.test_case cmd `Quick (test_rejected_source cmd))
          frontend_commands );
      ( "directory source",
        List.map
          (fun cmd ->
            Alcotest.test_case cmd `Quick (test_directory_source [ cmd ]))
          frontend_commands
        @ [ Alcotest.test_case "client" `Quick
              (test_directory_source
                 ~doc:"on a source or --batch file that cannot be read"
                 [ "client"; "--socket"; missing_dir_path "s.sock" ]) ] );
      ( "workload flags",
        [ Alcotest.test_case "simulate gemm -U" `Quick test_unroll_workload ]
      ) ]
