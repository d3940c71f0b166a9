(* The command-line surface fails with a structured error, never an
   uncaught exception: every subcommand that resolves a workload name
   rejects an unknown one with exit code 2, lists the valid names on
   standard error, and documents that code in its EXIT STATUS. *)

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
          commands ) ]
