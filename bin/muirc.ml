(* muirc — the command-line driver of the μIR toolchain.

     muirc ir       prog.mc            print the compiler IR
     muirc graph    prog.mc            print the μIR circuit
     muirc graph    model [--fuse] [--dot f]  operator graph of a model
     muirc check    prog.mc [-O pass]  static analysis (deadlock, races)
     muirc chisel   prog.mc [-o f]     emit Chisel for the accelerator
     muirc simulate prog.mc [-O pass]  cycle-accurate simulation
     muirc profile  prog.mc [-O pass]  traced simulation + stall report
     muirc synth    prog.mc [-O pass]  FPGA/ASIC synthesis estimates
     muirc workload name [-O pass]     same, for a bundled benchmark
     muirc explore  name [--jobs N]    design-space exploration (Pareto)

   Passes (-O, repeatable, applied in order): the individual passes
     fusion | queuing | tiling=N | localize | spad-bank=N | cache-bank=N
     | tensor, plus every named stack of Muir_opt.Stacks.registry —
   the stack list in the help text derives from that registry. *)

open Cmdliner
module Pipeline = Muir_pipeline.Pipeline

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let compile path = Muir_frontend.Frontend.compile (read_file path)

(* Run [f], which compiles the source at [path]: a source the frontend
   rejects prints one line naming the file, the position and the
   reason, then exits 1. *)
let handle_frontend path f =
  try f () with
  | e -> (
    match Muir_frontend.Frontend.describe_error e with
    | Some msg ->
      Fmt.epr "%s: %s@." path msg;
      exit 1
    | None -> raise e)

(* EXIT STATUS row of every command that compiles a source file. *)
let frontend_exit =
  Cmd.Exit.info 1
    ~doc:
      "on a source the frontend rejects; one line on standard error names \
       the file, the position and the reason."

(* -O pass parsing *)
let parse_pass (s : string) : Muir_opt.Pass.t list option =
  let int_arg prefix =
    let plen = String.length prefix in
    if String.length s > plen && String.sub s 0 plen = prefix then
      int_of_string_opt (String.sub s plen (String.length s - plen))
    else None
  in
  match s with
  | "fusion" -> Some [ Muir_opt.Fusion.pass ]
  | "queuing" -> Some [ Muir_opt.Structural.queuing_pass () ]
  | "localize" -> Some [ Muir_opt.Structural.localization_pass () ]
  | "tensor" -> Some [ Muir_opt.Tensor.pass ]
  | _ when Muir_opt.Stacks.find_spec s <> None ->
    (* named stacks come from the registry, at their own defaults *)
    let spec = Option.get (Muir_opt.Stacks.find_spec s) in
    Some (spec.sp_build spec.sp_defaults)
  | _ -> (
    match int_arg "tiling=" with
    | Some n -> Some [ Muir_opt.Structural.tiling_pass ~tiles:n () ]
    | None -> (
      match int_arg "spad-bank=" with
      | Some n ->
        Some [ Muir_opt.Structural.scratchpad_banking_pass ~banks:n () ]
      | None -> (
        match int_arg "cache-bank=" with
        | Some n ->
          Some [ Muir_opt.Structural.cache_banking_pass ~banks:n () ]
        | None -> None)))

let passes_conv : Muir_opt.Pass.t list Arg.conv =
  let parse s =
    match parse_pass s with
    | Some p -> Ok p
    | None -> Error (`Msg (Fmt.str "unknown pass %S" s))
  in
  Arg.conv (parse, fun ppf ps ->
      Fmt.(list ~sep:comma string) ppf
        (List.map (fun (p : Muir_opt.Pass.t) -> p.pname) ps))

let unroll_arg =
  Arg.(
    value & flag
    & info [ "U"; "unroll" ]
        ~doc:"Apply behaviour-level loop unrolling before building μIR.")

let passes_arg =
  (* The stack-name list derives from the registry, so a stack added
     there is parsed and documented here with no further edits. *)
  Arg.(
    value
    & opt_all passes_conv []
    & info [ "O"; "pass" ] ~docv:"PASS"
        ~doc:
          (Fmt.str
             "μopt pass to apply (repeatable): fusion, queuing, tiling=N, \
              localize, spad-bank=N, cache-bank=N, tensor, or a named \
              stack: %s."
             (String.concat ", " (Muir_opt.Stacks.names ()))))

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let target_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE|WORKLOAD"
        ~doc:"A .mc source file, or the name of a bundled workload.")

(* All circuit-producing commands go through the staged pipeline
   (lib/muir/pipeline.ml) — the same stages the explorer and the serve
   daemon run.  File targets keep their historical behavior: no
   circuit name override, pass reports echoed to stderr. *)
let build_file ?(unroll = false) path passes : Pipeline.built =
  let b =
    Pipeline.build ~unroll ~passes:(List.concat passes)
      (Pipeline.of_file path)
  in
  List.iter (fun r -> Fmt.epr "%a@." Muir_opt.Pass.pp_report r) b.p_reports;
  b

let optimized_circuit ?unroll path passes =
  let b = build_file ?unroll path passes in
  (b.Pipeline.p_program, b.Pipeline.p_circuit)

(* A target that is not a file must name a bundled workload; any
   other name is a usage error (exit 2) that lists the valid ones. *)
let resolve_workload (name : string) : Muir_workloads.Workloads.t =
  let module W = Muir_workloads.Workloads in
  match List.find_opt (fun (w : W.t) -> w.wname = name) W.all with
  | Some w -> w
  | None ->
    Fmt.epr "unknown target %s: not a file, and not one of the workloads \
             (%s)@."
      name
      (String.concat ", " (List.map (fun (w : W.t) -> w.wname) W.all));
    exit 2

(* EXIT STATUS of every command that resolves a workload name. *)
let workload_exits =
  Cmd.Exit.info 2
    ~doc:"on an unknown workload name (neither a file nor a bundled \
          workload); the valid names are listed on standard error."
  :: Cmd.Exit.defaults

(* check/profile accept either a source file or a bundled workload
   name; workload targets are built under their bundled name and do
   not echo pass reports. *)
let target_built ?unroll target passes : Pipeline.built =
  if Sys.file_exists target then build_file ?unroll target passes
  else
    Pipeline.build ?unroll ~passes:(List.concat passes)
      (Pipeline.of_workload (resolve_workload target))

(* --- commands ------------------------------------------------------ *)

let ir_cmd =
  let run path =
    handle_frontend path (fun () ->
        Fmt.pr "%a@." Muir_ir.Program.pp (compile path))
  in
  Cmd.v
    (Cmd.info "ir" ~exits:(frontend_exit :: Cmd.Exit.defaults)
       ~doc:"Print the compiler IR of a program.")
    Term.(const run $ file_arg)

(* A report file that cannot be read or parsed, or an output path that
   cannot be written, is a usage error: one line naming the file and the
   reason, then exit 2 (as `bench compare` does). *)
let file_error path reason =
  Fmt.epr "%s@."
    (if String.starts_with ~prefix:path reason then reason
     else path ^ ": " ^ reason);
  exit 2

let write_file f s =
  (try
     let oc = open_out f in
     output_string oc s;
     close_out oc
   with Sys_error e -> file_error f e);
  Fmt.pr "wrote %s@." f

(* Output paths are checked before the work that fills them: the
   directory must exist and the path must not be one.  A failure prints
   the line a failed write would, and exits 2. *)
let check_outputs (paths : string option list) =
  List.iter
    (Option.iter (fun f ->
         match (Unix.stat (Filename.dirname f)).st_kind with
         | Unix.S_DIR ->
           if Sys.file_exists f && Sys.is_directory f then
             file_error f (Unix.error_message Unix.EISDIR)
         | _ -> file_error f (Unix.error_message Unix.ENOTDIR)
         | exception Unix.Unix_error (e, _, _) ->
           file_error f (Unix.error_message e)))
    paths

(* EXIT STATUS row of every command that writes an output file. *)
let output_exit =
  Cmd.Exit.info 2
    ~doc:
      "on an output path that cannot be written, checked before the work \
       starts; one line on standard error names the file and the reason."

(* Run [f], which opens [path]: a path it cannot use is a usage error
   too. *)
let on_path path f =
  try f () with
  | Sys_error e -> file_error path e
  | Unix.Unix_error (e, _, _) -> file_error path (Unix.error_message e)

let load_report path =
  try Muir_trace.Report.load path
  with Muir_trace.Report.Bad_report e | Sys_error e -> file_error path e

(* muirc graph: for a source file, the μIR circuit (historical
   behavior); for a tensor-graph model (lib/nn), the operator graph
   with inferred shapes plus the fusion and lowering reports. *)
let graph_cmd =
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE|MODEL"
          ~doc:
            (Fmt.str
               "A .mc source file (prints the μIR circuit), or a \
                tensor-graph model — %s — (prints the operator graph, \
                shapes, and the lowering report)."
               (String.concat ", "
                  (List.map fst Muir_nn.Models.all))))
  in
  let fuse_flag =
    Arg.(
      value & flag
      & info [ "fuse" ]
          ~doc:
            "Run graph-level op fusion (fold relu into producers, \
             elide flatten) before lowering.  Models only.")
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"OUT"
          ~doc:
            "Write the operator graph as a Graphviz digraph with \
             per-node output shapes.  Models only.")
  in
  let run target passes unroll fuse dot =
    check_outputs [ dot ];
    handle_frontend target (fun () ->
        if Sys.file_exists target then begin
          let _, c = optimized_circuit ~unroll target passes in
          Fmt.pr "%a@." Muir_core.Graph.pp_circuit c
        end
        else
          match Muir_nn.Models.find target with
          | None ->
            Fmt.epr "unknown target %s: not a file, and not one of the \
                     models (%s)@."
              target
              (String.concat ", " (List.map fst Muir_nn.Models.all));
            exit 2
          | Some build ->
            let g = build () in
            if fuse then Fmt.pr "%a@." Muir_nn.Fuse.pp_report (Muir_nn.Fuse.run g);
            Fmt.pr "@[<v>%a@]" Muir_nn.Graph.pp g;
            let _src, report = Muir_nn.Lower.lower g in
            Fmt.pr "%a@." Muir_nn.Lower.pp_report report;
            Option.iter (fun f -> write_file f (Muir_nn.Gdot.render g)) dot)
  in
  Cmd.v
    (Cmd.info "graph"
       ~exits:
         (Cmd.Exit.info 2
            ~doc:
              "on an unknown target (neither a file nor a tensor-graph \
               model); the valid models are listed on standard error."
         :: frontend_exit :: output_exit :: Cmd.Exit.defaults)
       ~doc:
         "Print the μIR circuit of a source file, or the operator \
          graph of a tensor-graph model.")
    Term.(const run $ target_arg $ passes_arg $ unroll_arg $ fuse_flag
          $ dot_arg)

let dot_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT")
  in
  let prof_flag =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Simulate first and overlay the profile: nodes colored by \
             fire count and annotated with their dominant stall cause.")
  in
  let run target passes unroll out profile =
    check_outputs [ out ];
    handle_frontend target (fun () ->
        let b = target_built ~unroll target passes in
        let c = b.Pipeline.p_circuit in
        let heat =
          if not profile then None
          else begin
            (* the heat overlay only needs the counter bank — no ring *)
            let r = Pipeline.simulate b in
            Some
              (Muir_trace.Profile.heat
                 (Muir_trace.Profile.of_run c r.Muir_sim.Sim.counters))
          end
        in
        let dot = Muir_core.Dot.render ?heat c in
        match out with
        | None -> print_string dot
        | Some f -> write_file f dot)
  in
  Cmd.v
    (Cmd.info "dot" ~exits:(frontend_exit :: output_exit :: workload_exits)
       ~doc:"Render the μIR circuit as a Graphviz digraph.")
    Term.(const run $ target_arg $ passes_arg $ unroll_arg $ out $ prof_flag)

(* muirc check: static analyses + optional timing oracle, with a
   versioned JSON form and scriptable exit codes (0 clean / 1 errors /
   3 warnings-only under --strict). *)

let check_json_schema = "muir-check-v1"

let check_json (c : Muir_core.Graph.circuit) ~(target : string)
    (diags : Muir_analysis.Diag.t list)
    (timing : Muir_analysis.Timing.t option) ~(exit_code : int) : string =
  let module J = Muir_trace.Json in
  let module A = Muir_analysis in
  let diag_json (d : A.Diag.t) =
    J.Obj
      [ ("severity", J.Str (A.Diag.severity_to_string d.sev));
        ("code", J.Str d.code);
        ("where", J.Str d.where);
        ("node", match d.node with Some n -> J.Int n | None -> J.Null);
        ("msg", J.Str d.msg) ]
  in
  let ii_json (tt : A.Timing.task_timing) =
    match tt.tt_ii with
    | A.Timing.Unconstrained -> J.Obj [ ("kind", J.Str "unconstrained") ]
    | A.Timing.Deadlocked cyc ->
      J.Obj
        [ ("kind", J.Str "deadlock");
          ("cycle", J.Arr (List.map (fun n -> J.Int n) cyc)) ]
    | A.Timing.Bounded { num; den; cycle; binding } ->
      J.Obj
        [ ("kind", J.Str "bounded");
          ("num", J.Int num);
          ("den", J.Int den);
          ("cycle", J.Arr (List.map (fun n -> J.Int n) cycle));
          ("binding", J.Str (A.Timing.binding_name c binding));
          ("suggest", J.Str (A.Timing.suggest c binding)) ]
  in
  let task_json (tt : A.Timing.task_timing) =
    J.Obj
      [ ("task", J.Int tt.tt_tid);
        ("name", J.Str tt.tt_name);
        ("ii", ii_json tt);
        ("trips",
         match tt.tt_trips with Some t -> J.Int t | None -> J.Null);
        ("ninv", J.Int tt.tt_ninv);
        ("rmin", J.Int tt.tt_rmin);
        ("bound", J.Int tt.tt_bound);
        ("pipelined", J.Bool tt.tt_pipelined);
        ("dynamic", J.Bool tt.tt_dynamic) ]
  in
  let nerr = List.length (A.Diag.errors diags) in
  J.to_string
    (J.Obj
       [ ("schema", J.Str check_json_schema);
         ("target", J.Str target);
         ("diagnostics", J.Arr (List.map diag_json diags));
         ("errors", J.Int nerr);
         ("warnings", J.Int (List.length diags - nerr));
         ("timing",
          match timing with
          | None -> J.Null
          | Some a ->
            J.Obj
              [ ("bound", J.Int a.bound);
                ("tasks", J.Arr (List.map task_json a.tasks)) ]);
         ("exit", J.Int exit_code) ])

let check_cmd =
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE|WORKLOAD"
          ~doc:"A .mc source file, or the name of a bundled workload.")
  in
  let timing_flag =
    Arg.(
      value & flag
      & info [ "timing" ]
          ~doc:
            "Also run the static timing analysis: per-task steady-state \
             II lower bounds (max cycle ratio of the timed token-flow \
             graph), critical cycles, binding resources and sizing \
             suggestions, plus a whole-run cycle lower bound.  On a \
             clean circuit the suggestions are ranked against the \
             simulator's measured stall attribution.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"OUT"
          ~doc:
            "Write the diagnostics (and timing results, with \
             $(b,--timing)) as schema-versioned JSON.")
  in
  let strict_flag =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit with code 3 when there are warnings but no errors.")
  in
  let run target passes unroll timing json strict =
    check_outputs [ json ];
    handle_frontend target (fun () ->
        let b = target_built ~unroll target passes in
        let c = b.Pipeline.p_circuit in
        let diags = Muir_analysis.Check.circuit c in
        List.iter (fun d -> Fmt.pr "%a@." Muir_analysis.Diag.pp d) diags;
        let nerr = List.length (Muir_analysis.Diag.errors diags) in
        let nwarn = List.length diags - nerr in
        if diags = [] then Fmt.pr "no findings@."
        else Fmt.pr "%d error(s), %d warning(s)@." nerr nwarn;
        let timing_info =
          if not timing then None
          else Some (Muir_analysis.Timing.analyze c)
        in
        Option.iter
          (fun (a : Muir_analysis.Timing.t) ->
            Fmt.pr "@.%a@." (Muir_analysis.Timing.report c) a;
            (* Rank the static suggestions against measured stalls —
               only on a clean circuit (a deadlocked one won't finish). *)
            if nerr = 0 then begin
              let r = Pipeline.simulate b in
              let prof =
                Muir_trace.Profile.of_run c r.Muir_sim.Sim.counters
              in
              let measured = Muir_trace.Profile.dominant_struct prof in
              (match measured with
              | Some s ->
                Fmt.pr "@.measured bottleneck: %s (%d stall cycles)@."
                  s.s_name s.s_stalls
              | None -> Fmt.pr "@.measured bottleneck: none (no stalls)@.");
              let suggestions =
                Muir_analysis.Timing.rank_bindings a
                  (Option.map
                     (fun (s : Muir_trace.Profile.struct_row) -> s.s_ref)
                     measured)
              in
              List.iter
                (fun (hit, (tt : Muir_analysis.Timing.task_timing), b) ->
                  Fmt.pr "suggest%s: %s binds %s — %s@."
                    (if hit then " [matches measured]" else "")
                    tt.tt_name
                    (Muir_analysis.Timing.binding_name c b)
                    (Muir_analysis.Timing.suggest c b))
                suggestions;
              Fmt.pr "static bound %d <= measured %d cycles@." a.bound
                r.Muir_sim.Sim.stats.total_cycles
            end)
          timing_info;
        let code = if nerr > 0 then 1 else if strict && nwarn > 0 then 3 else 0 in
        Option.iter
          (fun f ->
            write_file f
              (check_json c ~target diags timing_info ~exit_code:code))
          json;
        exit code)
  in
  Cmd.v
    (Cmd.info "check"
       ~exits:
         (Cmd.Exit.info 1
            ~doc:
              "when the analyses report errors, or on a source the \
               frontend rejects (one line on standard error names the \
               file, the position and the reason)."
         :: Cmd.Exit.info 3
              ~doc:"with $(b,--strict), on warnings but no errors."
         :: output_exit :: workload_exits)
       ~doc:
         "Run the static analyses on a program's circuit: deadlock and \
          starvation on the dataflow graph, buffer-sizing imbalance, \
          parallel-race detection on the spawn structure, and (with \
          $(b,--timing)) max-cycle-ratio throughput bounds.  Exit code 0 \
          when clean, 1 on errors, 3 on warnings-only with \
          $(b,--strict).  $(b,--json) writes machine-readable results.")
    Term.(
      const run $ target_arg $ passes_arg $ unroll_arg $ timing_flag
      $ json_arg $ strict_flag)

let chisel_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT")
  in
  let run path passes out =
    check_outputs [ out ];
    handle_frontend path (fun () ->
        let _, c = optimized_circuit path passes in
        let src = Muir_rtl.Chisel.emit c in
        match out with
        | None -> print_string src
        | Some f -> write_file f src)
  in
  Cmd.v
    (Cmd.info "chisel"
       ~exits:(frontend_exit :: output_exit :: Cmd.Exit.defaults)
       ~doc:"Emit Chisel for the accelerator.")
    Term.(const run $ file_arg $ passes_arg $ out)

let report_simulation (r : Muir_sim.Sim.result) =
  Fmt.pr "cycles            %d (+%d DMA) = %d@." r.stats.cycles
    r.stats.dma_cycles r.stats.total_cycles;
  Fmt.pr "node firings      %d@." r.stats.fires;
  Fmt.pr "memory requests   %d@." r.stats.mem_requests;
  List.iter
    (fun (s : Muir_sim.Memsys.struct_stats) ->
      Fmt.pr "  %-12s accesses=%d hits=%d misses=%d conflicts=%d@." s.ss_name
        s.ss_accesses s.ss_hits s.ss_misses s.ss_conflicts)
    r.stats.mem;
  List.iter
    (fun (t, n) ->
      if n > 0 then
        let util =
          match List.assoc_opt t r.stats.utilization with
          | Some u -> Fmt.str " (%.0f%% busy)" (100.0 *. u)
          | None -> ""
        in
        Fmt.pr "  task %-14s %d invocations%s@." t n util)
    r.stats.invocations

let simulate_cmd =
  let run target passes unroll =
    handle_frontend target (fun () ->
        let b = target_built ~unroll target passes in
        let r = Pipeline.simulate b in
        report_simulation r;
        Fmt.pr "return value      %s@."
          (Muir_ir.Types.value_to_string r.value))
  in
  Cmd.v
    (Cmd.info "simulate" ~exits:(frontend_exit :: workload_exits)
       ~doc:"Cycle-accurate simulation of the accelerator.")
    Term.(const run $ target_arg $ passes_arg $ unroll_arg)

let profile_cmd =
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE|WORKLOAD"
          ~doc:"A .mc source file, or the name of a bundled workload.")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Rows per report section.")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"OUT"
          ~doc:
            "Write the retained event window as Chrome trace JSON (open \
             in chrome://tracing or Perfetto).")
  in
  let vcd_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"OUT"
          ~doc:"Write the retained event window as a VCD waveform dump.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"OUT"
          ~doc:
            "Write a versioned machine-readable run report (counter \
             bank, per-structure stalls, FPGA/ASIC model outputs, \
             provenance).")
  in
  let diff_flag =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Treat the two positional arguments as run-report files \
             (written by --json) and print the per-structure \
             cycle-delta view instead of simulating.")
  in
  let second_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"REPORT_B"
          ~doc:"Second report file (with $(b,--diff)).")
  in
  let run target passes unroll top chrome vcd json diff second =
    check_outputs [ chrome; vcd; json ];
    handle_frontend target (fun () ->
        if diff then begin
          let b =
            match second with
            | Some b -> b
            | None ->
              Fmt.epr "profile --diff needs two report files: A B@.";
              exit 2
          in
          let sa = load_report target in
          let sb = load_report b in
          match (sa.su_runs, sb.su_runs) with
          | ra :: _, rb :: _ -> Muir_trace.Report.pp_diff Fmt.stdout ra rb
          | _ ->
            Fmt.epr "report with no runs@.";
            exit 2
        end
        else begin
          let b = target_built ~unroll target passes in
          let c = b.Pipeline.p_circuit in
          let tracer = Muir_trace.Trace.create () in
          let r = Pipeline.simulate ~tracer b in
          let prof = Muir_trace.Profile.of_run c ~tracer r.counters in
          Muir_trace.Profile.report ~top Fmt.stdout prof;
          Fmt.pr "@.total cycles      %d (%d fires)@." r.stats.total_cycles
            r.stats.fires;
          Option.iter
            (fun f -> write_file f (Muir_trace.Export.chrome c tracer))
            chrome;
          Option.iter
            (fun f -> write_file f (Muir_trace.Export.vcd c tracer))
            vcd;
          Option.iter
            (fun f ->
              let stack =
                match
                  List.map
                    (fun (p : Muir_opt.Pass.t) -> p.pname)
                    (List.concat passes)
                with
                | [] -> "baseline"
                | ps -> String.concat "," ps
              in
              let rep =
                Pipeline.report ~stack ~wall:r.stats.wall_seconds b
                  (Pipeline.model b) r
              in
              write_file f (Muir_trace.Report.to_json rep))
            json
        end)
  in
  Cmd.v
    (Cmd.info "profile"
       ~exits:
         (Cmd.Exit.info 2
            ~doc:
              "on a report file (with $(b,--diff)) that cannot be read or \
               parsed, or an output path that cannot be written; one line \
               on standard error names the file and the reason."
         :: frontend_exit :: workload_exits)
       ~doc:
         "Simulate with cycle-level tracing and print the bottleneck \
          report: top stalled nodes with their dominant cause, stall \
          cycles attributed to memory structures and task queues (with \
          the μopt pass that widens each), the critical path over the \
          fire-event DAG, and queue-occupancy histograms.  With \
          $(b,--json), also write a versioned machine-readable run \
          report; with $(b,--diff A B), compare two such reports \
          structure by structure.")
    Term.(
      const run $ target_arg $ passes_arg $ unroll_arg $ top_arg
      $ chrome_arg $ vcd_arg $ json_arg $ diff_flag $ second_arg)

let explore_cmd =
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE|WORKLOAD"
          ~doc:"A .mc source file, or the name of a bundled workload.")
  in
  let budget_arg =
    Arg.(
      value & opt int 96
      & info [ "budget-evals" ] ~docv:"N"
          ~doc:"Evaluate at most $(docv) fresh configurations.")
  in
  let area_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "area-budget" ] ~docv:"ALMS"
          ~doc:
            "Prune configurations whose modeled FPGA area exceeds \
             $(docv) ALMs before they reach the simulator.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Evaluate configurations on $(docv) parallel domains.  The \
             frontier is identical for every value.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"OUT"
          ~doc:"Write every evaluation and the frontier as JSON.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S"
          ~doc:"Seed of the greedy search's diversification step.")
  in
  let strategy_arg =
    let module E = Muir_dse.Explore in
    let named s = (E.strategy_to_string s, s) in
    Arg.(
      value
      & opt (enum [ named E.Grid; named E.Greedy ]) E.Grid
      & info [ "strategy" ] ~docv:"NAME"
          ~doc:
            "Search strategy: $(b,grid) (exhaustive sweep) or \
             $(b,greedy) (profiler-guided hill climb).")
  in
  let tprune_flag =
    Arg.(
      value & flag
      & info [ "timing-prune" ]
          ~doc:
            "Skip simulating configurations whose static timing lower \
             bound is already strictly dominated by a simulated point \
             (same frontier, fewer simulations).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-file" ] ~docv:"OUT"
          ~doc:
            "Write the run's telemetry (evals, sims, prunes, cache \
             traffic, per-stage latency histograms — the \
             $(b,muir_dse_*) families) as Prometheus text.")
  in
  let run target budget area jobs json seed strategy tprune metrics_file =
    check_outputs [ json; metrics_file ];
    handle_frontend target (fun () ->
        let src =
          if Sys.file_exists target then
            Pipeline.of_text
              ~name:(Filename.remove_extension (Filename.basename target))
              (read_file target)
          else Pipeline.of_workload (resolve_workload target)
        in
        let obs =
          Option.map (fun _ -> Muir_obs.Obs.create ()) metrics_file
        in
        let t =
          Muir_dse.Explore.run ~strategy ~jobs ~budget_evals:budget
            ?area_budget:area ~timing_prune:tprune ~seed ?obs src
        in
        Muir_dse.Explore.pp_result Fmt.stdout t;
        Option.iter
          (fun f -> write_file f (Muir_dse.Explore.to_json t))
          json;
        Option.iter
          (fun f ->
            let obs = Option.get obs in
            write_file f
              (Muir_obs.Prom.render obs.Muir_obs.Obs.o_metrics))
          metrics_file)
  in
  Cmd.v
    (Cmd.info "explore"
       ~exits:(frontend_exit :: output_exit :: workload_exits)
       ~doc:
         "Design-space exploration: enumerate μopt stacks × tiling \
          width × banking (× per-pass on/off), evaluate each with the \
          cycle-accurate simulator and the synthesis models on a \
          parallel domain pool with a content-keyed memo cache, and \
          print the cycles-vs-area Pareto frontier.")
    Term.(
      const run $ target_arg $ budget_arg $ area_arg $ jobs_arg
      $ json_arg $ seed_arg $ strategy_arg $ tprune_flag $ metrics_arg)

let synth_cmd =
  let run path passes =
    handle_frontend path (fun () ->
        let _, c = optimized_circuit path passes in
        let d = Muir_rtl.Lower.design c in
        let comps, nets = Muir_rtl.Rtl.size d in
        Fmt.pr "design: %d components, %d nets@." comps nets;
        Fmt.pr "@[<v2>histogram:@,%a@]@." Muir_rtl.Rtl.pp_histogram d;
        Fmt.pr "FPGA (Arria-10-class): %a@." Muir_model.Model.pp_fpga
          (Muir_model.Model.fpga d);
        Fmt.pr "ASIC (28 nm):          %a@." Muir_model.Model.pp_asic
          (Muir_model.Model.asic d))
  in
  Cmd.v
    (Cmd.info "synth" ~exits:(frontend_exit :: Cmd.Exit.defaults)
       ~doc:"FPGA/ASIC synthesis estimates.")
    Term.(const run $ file_arg $ passes_arg)

let workload_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  let list_flag = Arg.(value & flag & info [ "list" ] ~doc:"List workloads.") in
  let run name passes listing =
    if listing then
      List.iter
        (fun (w : Muir_workloads.Workloads.t) ->
          Fmt.pr "%-10s %-22s %s@." w.wname
            (Muir_workloads.Workloads.category_to_string w.category)
            w.description)
        Muir_workloads.Workloads.all
    else begin
      let b =
        Pipeline.build ~passes:(List.concat passes)
          (Pipeline.of_workload (resolve_workload name))
      in
      report_simulation (Pipeline.simulate b);
      let cpu = Muir_cpu.Arm.run b.p_program in
      let hls = Muir_hls.Hls.run b.p_program in
      Fmt.pr "ARM A9 model      %.0f cycles @ 1 GHz@." cpu.cpu_cycles;
      Fmt.pr "HLS model         %.0f cycles@." hls.hls_cycles
    end
  in
  Cmd.v
    (Cmd.info "workload" ~exits:workload_exits
       ~doc:"Run a bundled benchmark (try --list with any name).")
    Term.(const run $ name_arg $ passes_arg $ list_flag)

(* --- version: every schema/provenance fact in one place ------------ *)

let muirc_version = "1.0.0"

let version_cmd =
  let run () =
    let p = Muir_trace.Report.provenance () in
    Fmt.pr "muirc %s@." muirc_version;
    Fmt.pr "git rev         %s@." p.pv_git_rev;
    Fmt.pr "dune profile    %s@." p.pv_profile;
    Fmt.pr "report schema   %d@." p.pv_schema;
    Fmt.pr "check schema    %s@." check_json_schema;
    Fmt.pr "serve protocol  %s@." Muir_serve.Proto.version
  in
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "Print the toolchain's build provenance (git revision, dune \
          profile) and every wire/schema version — the run-report \
          schema, the $(b,muirc check --json) schema, and the serve \
          socket protocol — in one place.")
    Term.(const run $ const ())

(* --- the serve daemon and its client ------------------------------- *)

let default_socket =
  Filename.concat (Filename.get_temp_dir_name ()) "muirc-serve.sock"

let socket_arg =
  Arg.(
    value
    & opt string default_socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path the daemon listens on.")

let serve_cmd =
  let cache_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist the content-addressed result cache in $(docv) \
             (created if missing); a restarted daemon warms from it, so \
             repeated batches cost zero fresh simulations across \
             restarts.  Without this flag the cache is memory-only.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Evaluate each batch's fresh items on $(docv) domains.")
  in
  let queue_arg =
    Arg.(
      value & opt int 256
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission bound: reject a run request (with a structured \
             $(b,overloaded) error) when accepting it would put more \
             than $(docv) items in the queue.")
  in
  let log_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-json" ] ~docv:"FILE"
          ~doc:
            "Write one structured JSON record per daemon event (accept, \
             admit, evaluate, reject, drain — leveled, with monotonic \
             sequence numbers) to $(docv); $(b,-) writes to stderr.")
  in
  let metrics_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-file" ] ~docv:"FILE"
          ~doc:
            "Keep an atomically replaced Prometheus text snapshot of \
             the daemon's metrics current at $(docv) (every ~2s and at \
             drain), for sidecar scrapers that cannot speak the socket \
             protocol.")
  in
  let trace_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-file" ] ~docv:"FILE"
          ~doc:
            "At drain, write the retained per-item request spans (with \
             per-stage segments) as Chrome trace JSON to $(docv).")
  in
  let run socket cache_dir jobs queue log_json metrics_file trace_file =
    (* Every path is opened before the daemon listens. *)
    let log =
      match log_json with
      | None -> None
      | Some "-" -> Some (Muir_obs.Log.create (Muir_obs.Log.to_channel stderr))
      | Some f ->
        let oc = on_path f (fun () -> open_out f) in
        Some (Muir_obs.Log.create (Muir_obs.Log.to_channel oc))
    in
    let obs = Muir_obs.Obs.create ?log () in
    let t =
      on_path (Option.value cache_dir ~default:"") (fun () ->
          Muir_serve.Server.create ?cache_dir ~jobs ~queue_cap:queue ~obs ())
    in
    let ln = on_path socket (fun () -> Muir_serve.Server.listen socket) in
    let drain _ = Muir_serve.Server.request_drain t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
    Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
    Fmt.pr "muirc serve: listening on %s (jobs %d, queue cap %d%s)@." socket
      jobs queue
      (match cache_dir with
      | Some d -> ", cache " ^ d
      | None -> ", memory-only cache");
    let s = Muir_serve.Server.serve ?metrics_file ?trace_file ln t in
    Fmt.pr
      "muirc serve: drained — %d request(s), %d ok, %d error(s), %d \
       fresh, %d cached@."
      s.dr_requests s.dr_ok s.dr_errors s.dr_fresh s.dr_cached
  in
  Cmd.v
    (Cmd.info "serve"
       ~exits:
         (Cmd.Exit.info 2
            ~doc:
              "on a $(b,--log-json) file, $(b,--cache-dir) directory or \
               $(b,--socket) path that cannot be used; one line on \
               standard error names the path, and the daemon never \
               listens."
         :: Cmd.Exit.defaults)
       ~doc:
         "Run the persistent compile-and-simulate daemon: batched \
          requests (bundled workloads or inline source × μopt stack × \
          sim parameters) over length-prefixed JSON on a Unix-domain \
          socket, evaluated through the staged pipeline on a domain \
          pool, with a content-addressed result cache ($(b,--cache-dir) \
          makes it survive restarts), a bounded admission queue, \
          per-request deadlines, and graceful SIGINT/SIGTERM drain.  \
          Telemetry: $(b,--log-json) structured event logs, \
          $(b,--metrics-file) Prometheus snapshots, $(b,--trace-file) \
          Chrome request spans, plus the $(b,metrics) socket op.")
    Term.(
      const run $ socket_arg $ cache_arg $ jobs_arg $ queue_arg
      $ log_json_arg $ metrics_file_arg $ trace_file_arg)

let client_cmd =
  let targets_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE|WORKLOAD"
          ~doc:
            ".mc source files (sent inline) or bundled workload names; \
             each becomes one item of the batch.")
  in
  let stack_arg =
    Arg.(
      value & opt string "baseline"
      & info [ "stack" ] ~docv:"NAME"
          ~doc:"μopt registry stack for every positional target.")
  in
  let tiles_arg =
    Arg.(
      value & opt (some int) None
      & info [ "tiles" ] ~docv:"N" ~doc:"Override the stack's tile count.")
  in
  let banks_arg =
    Arg.(
      value & opt (some int) None
      & info [ "banks" ] ~docv:"N" ~doc:"Override the stack's bank count.")
  in
  let deadline_arg =
    Arg.(
      value & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-item deadline, measured from admission and enforced at \
             pipeline stage boundaries.")
  in
  let batch_arg =
    Arg.(
      value & opt (some string) None
      & info [ "batch" ] ~docv:"FILE"
          ~doc:
            "Read the batch from a JSON file of the form \
             {\"items\":[...]} instead of building it from positional \
             targets.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Ask the daemon for its counters (uptime, queue depth, \
             cache hit/miss/entry counts, per-stage latency) instead of \
             running a batch.")
  in
  let metrics_flag =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Ask the daemon for its Prometheus text exposition, \
             validate it with the strict parser (exit 2 on a malformed \
             scrape), and print it verbatim.")
  in
  let shutdown_flag =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the daemon to drain and exit.")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"OUT"
          ~doc:"Write the daemon's full response as JSON.")
  in
  let module J = Muir_trace.Json in
  let module P = Muir_serve.Proto in
  let run socket targets stack tiles banks deadline batch stats metrics
      shutdown json =
    check_outputs [ json ];
    let write_json resp =
      Option.iter
        (fun f -> write_file f (J.to_string (P.response_to_json resp)))
        json
    in
    let fail_transport msg =
      Fmt.epr "muirc client: %s@." msg;
      exit 2
    in
    try
      if stats then
        Muir_serve.Client.with_connection socket (fun fd ->
            match Muir_serve.Client.rpc fd P.Stats with
            | P.Stats_r s as resp ->
              write_json resp;
              Fmt.pr
                "uptime %.1fs  queue %d%s@.%d request(s): %d items, %d \
                 ok, %d error(s), %d fresh, %d cached@.cache: %d hits, \
                 %d misses, %d entries, %d corrupt discarded@."
                s.st_uptime_s s.st_queue_depth
                (if s.st_draining then " (draining)" else "")
                s.st_requests s.st_items s.st_ok s.st_errors s.st_fresh
                s.st_cached s.st_cache_hits s.st_cache_misses
                s.st_cache_entries s.st_cache_corrupt;
              List.iter
                (fun (t : P.stage_stat) ->
                  Fmt.pr "  %-9s %6d run(s)  %8.3fs@." t.tg_stage t.tg_count
                    t.tg_seconds)
                s.st_stages
            | resp ->
              write_json resp;
              fail_transport "unexpected response to stats")
      else if metrics then
        Muir_serve.Client.with_connection socket (fun fd ->
            match Muir_serve.Client.rpc fd P.Metrics with
            | P.Metrics_r text as resp -> (
              write_json resp;
              match Muir_obs.Prom.parse text with
              | _ -> print_string text
              | exception Muir_obs.Prom.Invalid m ->
                Fmt.epr "muirc client: malformed metrics exposition: %s@." m;
                exit 2)
            | resp ->
              write_json resp;
              fail_transport "unexpected response to metrics")
      else if shutdown then
        Muir_serve.Client.with_connection socket (fun fd ->
            match Muir_serve.Client.rpc fd P.Shutdown with
            | P.Bye -> Fmt.pr "daemon draining@."
            | _ -> fail_transport "unexpected response to shutdown")
      else begin
        let items =
          match batch with
          | Some f -> (
            let j =
              try J.parse (read_file f) with
              | Sys_error e -> file_error f e
              | J.Parse_error e ->
                Fmt.epr "%s: invalid JSON: %s@." f e;
                exit 2
            in
            match J.member "items" j with
            | Some items -> (
              try P.items_of_json items
              with P.Bad_request m ->
                Fmt.epr "%s: %s@." f m;
                exit 2)
            | None ->
              Fmt.epr "%s: no \"items\" array@." f;
              exit 2)
          | None ->
            List.mapi
              (fun i target ->
                let src =
                  if Sys.file_exists target then
                    P.Inline
                      { name =
                          Filename.remove_extension
                            (Filename.basename target);
                        text = read_file target }
                  else P.Workload target
                in
                { P.it_id = i; it_src = src; it_stack = stack;
                  it_tiles = tiles; it_banks = banks; it_off = [];
                  it_deadline_ms = deadline; it_jobs = 1 })
              targets
        in
        if items = [] then begin
          Fmt.epr "muirc client: nothing to run (no targets, no --batch)@.";
          exit 2
        end;
        Muir_serve.Client.with_connection socket (fun fd ->
            match Muir_serve.Client.rpc fd (P.Run items) with
            | P.Results { results; fresh; cached; errors } as resp ->
              write_json resp;
              List.iter
                (fun (r : P.result_) ->
                  match r.rs_outcome with
                  | P.Ok_ { cached; report } ->
                    let get k j =
                      match Option.bind j (J.member k) with
                      | Some (J.Int n) -> string_of_int n
                      | Some (J.Str s) -> s
                      | _ -> "?"
                    in
                    let run_j = J.member "run" report in
                    Fmt.pr "  #%-3d %-12s %-24s %10s cycles  [%s]@."
                      r.rs_id
                      (get "workload" run_j)
                      (get "stack" run_j)
                      (get "cycles" run_j)
                      (if cached then "cached" else "fresh")
                  | P.Err { code; stage; msg } ->
                    Fmt.pr "  #%-3d ERROR %s%s: %s@." r.rs_id code
                      (match stage with
                      | Some s -> " at " ^ s
                      | None -> "")
                      msg)
                results;
              Fmt.pr "%d ok (%d fresh, %d cached), %d error(s)@."
                (List.length results - errors)
                fresh cached errors;
              if errors > 0 then exit 1
            | P.Error_r { code; msg } as resp ->
              write_json resp;
              Fmt.epr "muirc client: daemon rejected the request: %s (%s)@."
                msg code;
              exit 1
            | resp ->
              write_json resp;
              fail_transport "unexpected response to run")
      end
    with Muir_serve.Client.Transport m -> fail_transport m
  in
  Cmd.v
    (Cmd.info "client"
       ~exits:
         (Cmd.Exit.info 2
            ~doc:
              "on a $(b,--batch) file that cannot be read or parsed, an \
               output path that cannot be written, a daemon that cannot \
               be reached or a malformed metrics exposition; one line on \
               standard error names the file or the reason."
         :: Cmd.Exit.defaults)
       ~doc:
         "Send a batch to a running $(b,muirc serve) daemon and print \
          the per-item results; also $(b,--stats), $(b,--metrics) and \
          $(b,--shutdown).")
    Term.(
      const run $ socket_arg $ targets_arg $ stack_arg $ tiles_arg
      $ banks_arg $ deadline_arg $ batch_arg $ stats_flag
      $ metrics_flag $ shutdown_flag $ json_arg)

(* --- muirc top: a live terminal view of a running daemon ----------- *)

let top_cmd =
  let module P = Muir_serve.Proto in
  let module Pr = Muir_obs.Prom in
  let socket_pos =
    Arg.(
      value
      & pos 0 string default_socket
      & info [] ~docv:"SOCKET"
          ~doc:"Unix-domain socket of the daemon to watch.")
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval"; "n" ] ~docv:"SECONDS" ~doc:"Refresh period.")
  in
  let once_flag =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Print a single frame and exit (no screen clearing).")
  in
  let ms h q = 1000.0 *. Pr.quantile h q in
  let pp_lat ppf = function
    | None -> Fmt.pf ppf "p50      -    p99      -"
    | Some h ->
      Fmt.pf ppf "p50 %8.2fms  p99 %8.2fms" (ms h 0.5) (ms h 0.99)
  in
  let render socket (s : P.stats_payload) (p : Pr.parsed) =
    let hist name labels = Pr.find_histogram p ~name ~labels () in
    Fmt.pr "muirc top — %s   uptime %.0fs   queue %d%s@." socket
      s.st_uptime_s s.st_queue_depth
      (if s.st_draining then "   DRAINING" else "");
    Fmt.pr "requests %d   items %d   ok %d   errors %d   fresh %d   \
            cached %d@."
      s.st_requests s.st_items s.st_ok s.st_errors s.st_fresh s.st_cached;
    let probes = s.st_cache_hits + s.st_cache_misses in
    Fmt.pr "cache    hits %d   misses %d   entries %d   disk %dB   \
            corrupt %d   hit rate %s@."
      s.st_cache_hits s.st_cache_misses s.st_cache_entries
      s.st_cache_disk_bytes s.st_cache_corrupt
      (if probes = 0 then "-"
       else Fmt.str "%.0f%%"
              (100.0 *. float_of_int s.st_cache_hits /. float_of_int probes));
    Fmt.pr "@.item latency   fresh:  %a@." pp_lat
      (hist "muir_serve_item_seconds" [ ("cached", "false") ]);
    Fmt.pr "               cached:  %a@." pp_lat
      (hist "muir_serve_item_seconds" [ ("cached", "true") ]);
    Fmt.pr "@.  %-9s %8s %10s %12s %12s@." "stage" "runs" "seconds"
      "p50" "p99";
    List.iter
      (fun (t : P.stage_stat) ->
        match hist "muir_serve_stage_seconds" [ ("stage", t.tg_stage) ] with
        | Some h when h.Pr.hd_count > 0 ->
          Fmt.pr "  %-9s %8d %10.3f %10.2fms %10.2fms@." t.tg_stage
            t.tg_count t.tg_seconds (ms h 0.5) (ms h 0.99)
        | _ ->
          Fmt.pr "  %-9s %8d %10.3f %12s %12s@." t.tg_stage t.tg_count
            t.tg_seconds "-" "-")
      s.st_stages;
    let errs =
      List.filter_map
        (fun (sm : Pr.sample_line) ->
          if sm.Pr.s_name = "muir_serve_errors_total" && sm.Pr.s_value > 0.0
          then
            Some
              ( Option.value ~default:"?" (List.assoc_opt "code" sm.Pr.s_labels),
                int_of_float sm.Pr.s_value )
          else None)
        p.Pr.p_samples
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    if errs <> [] then begin
      Fmt.pr "@.errors by code:@.";
      List.iter (fun (c, n) -> Fmt.pr "  %-16s %d@." c n) errs
    end
  in
  let run socket interval once =
    let clear () = if not once then Fmt.pr "\027[2J\027[H" in
    let tick () =
      match
        Muir_serve.Client.with_connection socket (fun fd ->
            let s = Muir_serve.Client.rpc fd P.Stats in
            let m = Muir_serve.Client.rpc fd P.Metrics in
            (s, m))
      with
      | P.Stats_r s, P.Metrics_r text -> (
        match Pr.parse text with
        | p ->
          clear ();
          render socket s p
        | exception Pr.Invalid m ->
          Fmt.epr "muirc top: malformed metrics exposition: %s@." m;
          exit 2)
      | _ ->
        Fmt.epr "muirc top: unexpected response@.";
        exit 2
      | exception Muir_serve.Client.Transport m ->
        if once then begin
          Fmt.epr "muirc top: %s@." m;
          exit 2
        end
        else begin
          clear ();
          Fmt.pr "muirc top: daemon unreachable (%s); retrying@." m
        end
    in
    if once then tick ()
    else
      while true do
        tick ();
        Unix.sleepf interval
      done
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal view of a running $(b,muirc serve) daemon: \
          queue depth, cache hit rate, p50/p99 item latency (fresh vs \
          cached), and the per-stage latency breakdown, refreshed every \
          $(b,--interval) seconds ($(b,--once) prints a single frame).")
    Term.(const run $ socket_pos $ interval_arg $ once_flag)

let main =
  Cmd.group
    (Cmd.info "muirc"
       ~version:
         (let p = Muir_trace.Report.provenance () in
          Fmt.str "%s (rev %s, %s profile)" muirc_version p.pv_git_rev
            p.pv_profile)
       ~doc:
         "μIR: an intermediate representation for transforming and \
          optimizing the microarchitecture of application accelerators.")
    [ ir_cmd; graph_cmd; check_cmd; dot_cmd; chisel_cmd; simulate_cmd;
      profile_cmd; explore_cmd; synth_cmd; workload_cmd; version_cmd;
      serve_cmd; client_cmd; top_cmd ]

let () = exit (Cmd.eval main)
