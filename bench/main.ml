(* Experiment harness: regenerates every table and figure of the μIR
   paper's evaluation (see DESIGN.md's experiment index).

     dune exec bench/main.exe           -- run everything
     dune exec bench/main.exe -- table2 fig9 ...   -- selected experiments

   Absolute numbers come from this repository's simulator and synthesis
   models, not the authors' testbed; EXPERIMENTS.md records the
   paper-vs-measured comparison of shapes.  The experiments print
   tables and assert nothing that a tier-1 test or CI asserts; each
   simulated run's outputs are still checked against the golden
   interpreter. *)

open Muir_ir
module W = Muir_workloads.Workloads
module Opt = Muir_opt
module G = Muir_core.Graph
module Pipeline = Muir_pipeline.Pipeline

let line = String.make 78 '-'

let header title = Fmt.pr "@.%s@.%s@.%s@." line title line

(* ------------------------------------------------------------------ *)
(* Execution helpers                                                    *)

type run = {
  r_cycles : int;
  r_mhz : float;
  r_us : float;  (** wall time at the modelled clock *)
}

let check_outputs (w : W.t) (p : Program.t) (r : Muir_sim.Sim.result) =
  let _, golden, _ = Interp.run p in
  match Memory.first_mismatch p w.outputs ~golden r.memory with
  | None -> ()
  | Some (g, i, x, y) ->
    failwith
      (Fmt.str "%s: output %s[%d] mismatch (golden %s, sim %s)" w.wname g i
         (Types.value_to_string x) (Types.value_to_string y))

(** Build, optimize, simulate, functionally check and model one
    workload through the staged pipeline. *)
let evaluate ?(passes = []) ?(unroll = false) (w : W.t) =
  let b = Pipeline.build ~unroll ~passes (Pipeline.of_workload w) in
  let r = Pipeline.simulate b in
  check_outputs w b.p_program r;
  (b, Pipeline.model b, r)

let run_workload ?passes ?unroll (w : W.t) : run =
  let _, m, r = evaluate ?passes ?unroll w in
  let cycles = r.stats.total_cycles and mhz = m.m_fpga.fr_mhz in
  { r_cycles = cycles; r_mhz = mhz; r_us = float_of_int cycles /. mhz }

(* ------------------------------------------------------------------ *)
(* Table 2: baseline synthesis quality                                  *)

let table2 () =
  header "Table 2: synthesizing baseline μIR accelerators (no μopt passes)";
  Fmt.pr "%-10s | %5s %6s %7s %7s %4s %5s | %7s %6s %5s@." "bench" "MHz"
    "mW" "ALMs" "Regs" "DSP" "BRAM" "kum2" "mW" "GHz";
  Fmt.pr "%s@." line;
  List.iter
    (fun (w : W.t) ->
      let m = Pipeline.model (Pipeline.build (Pipeline.of_workload w)) in
      let f = m.m_fpga and a = m.m_asic in
      Fmt.pr "%-10s | %5.0f %6.0f %7d %7d %4d %5d | %7.1f %6.1f %5.2f%s@."
        w.wname f.fr_mhz f.fr_mw f.fr_alms f.fr_regs f.fr_dsps f.fr_brams
        a.ar_area a.ar_mw a.ar_ghz
        (if w.tensor then "  [T]" else if w.fp then "  [F]" else ""))
    W.all

(* ------------------------------------------------------------------ *)
(* Figure 9: baseline μIR vs HLS                                        *)

let fig9_benches =
  [ "gemm"; "covar"; "fft"; "spmv"; "2mm"; "3mm"; "conv"; "dense8";
    "dense16"; "softm8"; "softm16" ]

let fig9 () =
  header
    "Figure 9: baseline μIR vs HLS, normalized execution time (HLS = 1; < \
     1 means μIR is faster)";
  Fmt.pr "%-10s %10s %10s %8s %8s %10s@." "bench" "uIR cyc" "HLS cyc"
    "uIR MHz" "HLS MHz" "norm exec";
  List.iter
    (fun name ->
      let w = W.find name in
      let r = run_workload w in
      let hls = Muir_hls.Hls.run (W.program w) in
      let hls_mhz = r.r_mhz /. hls.clock_ratio in
      let hls_us = hls.hls_cycles /. hls_mhz in
      Fmt.pr "%-10s %10d %10.0f %8.0f %8.0f %10.2f@." name r.r_cycles
        hls.hls_cycles r.r_mhz hls_mhz (r.r_us /. hls_us))
    fig9_benches

(* ------------------------------------------------------------------ *)
(* Figure 11: op fusion                                                 *)

let fig11_benches = [ "fft"; "spmv"; "covar"; "saxpy" ]

let fig11 () =
  header
    "Figure 11: execution-time improvement from auto-pipelining + op \
     fusion (baseline = 1)";
  List.map
    (fun name ->
      let w = W.find name in
      let base = run_workload w in
      let fused = run_workload ~passes:[ Opt.Fusion.pass ] w in
      let norm = fused.r_us /. base.r_us in
      Fmt.pr "%-10s baseline=%-8d fused=%-8d normalized=%.2f (%.2fx)@." name
        base.r_cycles fused.r_cycles norm (1.0 /. norm);
      (name, 1.0 /. norm))
    fig11_benches

(* ------------------------------------------------------------------ *)
(* Figure 12: concurrency tiling                                        *)

let fig12_benches = [ "stencil"; "saxpy"; "img-scale"; "fib"; "msort" ]
let fig12_tiles = [ 1; 2; 4; 8 ]

let fig12 () =
  header
    "Figure 12: execution time when varying execution tiles per task (1T \
     = 1)";
  Fmt.pr "%-10s %8s %8s %8s %8s   best speedup@." "bench" "1T" "2T" "4T"
    "8T";
  List.map
    (fun name ->
      let w = W.find name in
      let runs =
        List.map
          (fun tiles ->
            (run_workload
               ~passes:
                 [ Opt.Structural.queuing_pass ();
                   Opt.Structural.tiling_pass ~tiles () ]
               w)
              .r_cycles)
          fig12_tiles
      in
      let base = float_of_int (List.hd runs) in
      Fmt.pr "%-10s %8d %8d %8d %8d   %.2fx@." name (List.nth runs 0)
        (List.nth runs 1) (List.nth runs 2) (List.nth runs 3)
        (base /. float_of_int (List.nth runs 3));
      (name, base /. float_of_int (List.nth runs 3)))
    fig12_benches

(* ------------------------------------------------------------------ *)
(* Figure 15: tensor higher-order ops                                   *)

let fig15_benches = [ "relu[T]"; "2mm[T]"; "conv[T]" ]

let fig15 () =
  header
    "Figure 15: performance improvement from dedicated tensor units \
     (baseline = 1)";
  List.map
    (fun name ->
      let w = W.find name in
      let base = run_workload w in
      let opt = run_workload ~passes:(Opt.Stacks.tensor_stack ()) w in
      let speedup = base.r_us /. opt.r_us in
      Fmt.pr "%-10s baseline=%-8d tensor=%-8d speedup=%.2fx@." name
        base.r_cycles opt.r_cycles speedup;
      (name, speedup))
    fig15_benches

(* ------------------------------------------------------------------ *)
(* Figure 16: cache banking                                             *)

let fig16_benches = [ "gemm"; "fft"; "2mm"; "3mm"; "saxpy"; "conv" ]

let fig16 () =
  header "Figure 16: effect of cache banking (1-4 banks, 1B = 1)";
  Fmt.pr "%-10s %8s %8s %8s   best speedup@." "bench" "1B" "2B" "4B";
  List.map
    (fun name ->
      let w = W.find name in
      let runs =
        List.map
          (fun banks ->
            let passes =
              if banks = 1 then []
              else [ Opt.Structural.cache_banking_pass ~banks () ]
            in
            (run_workload ~passes w).r_cycles)
          [ 1; 2; 4 ]
      in
      let base = float_of_int (List.hd runs) in
      let best = base /. float_of_int (List.nth runs 2) in
      Fmt.pr "%-10s %8d %8d %8d   %.2fx@." name (List.nth runs 0)
        (List.nth runs 1) (List.nth runs 2) best;
      (name, best))
    fig16_benches

(* ------------------------------------------------------------------ *)
(* §6.4 memory localization (the Table 3 row next to cache banking)     *)

let loc_benches = [ "spmv"; "conv"; "saxpy"; "covar" ]

let localization () =
  header
    "§6.4 memory localization: per-array scratchpads replacing the \
     shared cache (baseline = 1)";
  List.map
    (fun name ->
      let w = W.find name in
      let base = run_workload w in
      let opt =
        run_workload ~passes:[ Opt.Structural.localization_pass () ] w
      in
      let speedup = base.r_us /. opt.r_us in
      Fmt.pr "%-10s baseline=%-8d localized=%-8d speedup=%.2fx@." name
        base.r_cycles opt.r_cycles speedup;
      (name, speedup))
    loc_benches

(* ------------------------------------------------------------------ *)
(* Figure 17: stacking multiple optimizations                           *)

let fig17_cilk = [ "saxpy"; "stencil"; "img-scale" ]

let fig17_loop =
  [ "gemm"; "covar"; "fft"; "spmv"; "2mm"; "3mm"; "conv"; "dense8";
    "dense16"; "softm8"; "softm16" ]

let fig17 () =
  header
    "Figure 17: stacked μopt passes, normalized execution (baseline = 1)";
  let do_group names stack =
    List.map
      (fun name ->
        let w = W.find name in
        let base = run_workload w in
        let opt = run_workload ~passes:(stack w) w in
        let norm = opt.r_us /. base.r_us in
        Fmt.pr "%-10s baseline=%-8d stacked=%-8d normalized=%.2f (%.2fx)@."
          name base.r_cycles opt.r_cycles norm (1.0 /. norm);
        (name, 1.0 /. norm))
      names
  in
  Fmt.pr "Cilk group: queuing + tiling + localization + banking + fusion@.";
  let cilk =
    do_group fig17_cilk (fun _ -> Opt.Stacks.cilk_stack ~tiles:4 ~banks:2 ())
  in
  Fmt.pr
    "@.Loop-nest group: queuing + cache banking + localization + fusion@.";
  let loops = do_group fig17_loop (fun _ -> Opt.Stacks.loop_stack ()) in
  cilk @ loops

(* ------------------------------------------------------------------ *)
(* Figure 18: optimized μIR vs ARM A9                                   *)

let fig18_benches =
  [ "gemm"; "covar"; "fft"; "fft-buf"; "spmv"; "2mm"; "3mm"; "img-scale";
    "relu[T]"; "2mm[T]"; "conv[T]" ]

let fig18 () =
  header
    "Figure 18: fully optimized μIR accelerators vs an ARM A9 @ 1 GHz (> \
     1: μIR faster)";
  Fmt.pr "%-10s %12s %10s %10s %10s@." "bench" "acc cycles" "acc us"
    "cpu us" "speedup";
  List.map
    (fun name ->
      let w = W.find name in
      (* "all optimizations": compiler-level unrolling (the paper
         enables all compiler opts) + the per-category μopt stack *)
      let r = run_workload ~unroll:true ~passes:(Pipeline.per_category w) w in
      let cpu = Muir_cpu.Arm.run (W.program w) in
      let cpu_us = Muir_cpu.Arm.nanoseconds cpu /. 1000.0 in
      let speedup = cpu_us /. r.r_us in
      Fmt.pr "%-10s %12d %10.2f %10.2f %10.2f@." name r.r_cycles r.r_us
        cpu_us speedup;
      (name, speedup))
    fig18_benches

(* ------------------------------------------------------------------ *)
(* Table 3 and the Figure 1 headline plot                               *)

let range l =
  let mn = List.fold_left (fun a (_, x) -> Float.min a x) infinity l in
  let mx = List.fold_left (fun a (_, x) -> Float.max a x) 0.0 l in
  (mn, mx)

let table3_data () =
  let f11 = fig11 () and f12 = fig12 () and f15 = fig15 ()
  and f16 = fig16 () and floc = localization () in
  header "Table 3: summary of μopt passes";
  Fmt.pr "%-16s %-12s %-38s %s@." "Opt" "Type" "Benchmarks" "Perf";
  let row name ty benches (mn, mx) =
    Fmt.pr "%-16s %-12s %-38s %.1f-%.1fx@." name ty
      (String.concat "," benches) mn mx
  in
  row "Op fusion" "Timing" fig11_benches (range f11);
  row "Task tiling" "Spatial" fig12_benches (range f12);
  row "Tensor ops" "Higher Ops" fig15_benches (range f15);
  row "Mem. localize" "Timing&Sp." loc_benches (range floc);
  row "Cache banking" "Timing&Sp." fig16_benches (range f16);
  (f11, f12, f15, f16, floc)

let table3 () = ignore (table3_data ())

let fig1 () =
  let f11, f12, f15, f16, floc = table3_data () in
  header "Figure 1 (headline plot): best improvement per pass class";
  let best l = snd (range l) in
  Fmt.pr "Op Fusion     %.1fx@." (best f11);
  Fmt.pr "Task Tiling   %.1fx@." (best f12);
  Fmt.pr "Tensor Intrin %.1fx@." (best f15);
  Fmt.pr "Locality      %.1fx@." (Float.max (best f16) (best floc))

(* ------------------------------------------------------------------ *)
(* Table 4: conciseness of μIR vs the circuit-level IR                  *)

let table4_benches = [ "saxpy"; "stencil"; "img-scale" ]

let table4 () =
  header
    "Table 4: conciseness of μIR vs the lowered circuit IR (elements \
     touched per transformation)";
  Fmt.pr "%-10s | %-26s | %-26s | %-26s | %s@." "bench"
    "tile 1->2 (uIR / rtl)" "add 1 SRAM (uIR / rtl)"
    "op fusion (uIR / rtl)" "rtl/uIR";
  List.iter
    (fun name ->
      let w = W.find name in
      let p = W.program w in
      let fresh () = Muir_core.Build.circuit ~name p in
      let delta (pass : Opt.Pass.t) =
        let c = fresh () in
        let d0 = Muir_rtl.Lower.design c in
        let rep = pass.prun c in
        let d1 = Muir_rtl.Lower.design c in
        let dn, de = Muir_rtl.Rtl.diff d0 d1 in
        (rep.delta_nodes, rep.delta_edges, dn, de)
      in
      let t = delta (Opt.Structural.tiling_pass ~tiles:2 ()) in
      let s = delta (Opt.Structural.localization_pass ()) in
      let f = delta Opt.Fusion.pass in
      let c = fresh () in
      let un, ue = G.graph_size c in
      let rn, re = Muir_rtl.Rtl.size (Muir_rtl.Lower.design c) in
      let pp (un', ue', rn', re') =
        Fmt.str "dN%4d dE%4d / %4d %4d" un' ue' rn' re'
      in
      Fmt.pr "%-10s | %s | %s | %s | %.1fx@." name (pp t) (pp s) (pp f)
        (float_of_int (rn + re) /. float_of_int (un + ue)))
    table4_benches

(* ------------------------------------------------------------------ *)
(* Ablations of DESIGN.md's called-out choices                          *)

let unroll_ablation () =
  header
    "Ablation: behaviour-level loop unrolling feeding hardware ILP \
     (baseline = 1)";
  List.iter
    (fun name ->
      let w = W.find name in
      let base = run_workload w in
      let unrolled = run_workload ~unroll:true w in
      let both =
        run_workload ~unroll:true ~passes:(Pipeline.per_category w) w
      in
      Fmt.pr
        "%-10s baseline=%-8d unrolled=%-8d unrolled+stack=%-8d (%.2fx, \
         %.2fx)@."
        name base.r_cycles unrolled.r_cycles both.r_cycles
        (base.r_us /. unrolled.r_us)
        (base.r_us /. both.r_us))
    [ "gemm"; "dense8"; "conv1d"; "conv" ]

let writeback_ablation () =
  header
    "Ablation: scratchpad write-back buffers (Pass-3 alternative, \
     baseline = localized)";
  List.iter
    (fun name ->
      let w = W.find name in
      let plain =
        run_workload ~passes:[ Opt.Structural.localization_pass () ] w
      in
      let buffered =
        run_workload
          ~passes:
            [ Opt.Structural.localization_pass ();
              Opt.Structural.writeback_pass () ]
          w
      in
      Fmt.pr "%-10s localized=%-8d +wb-buffer=%-8d (%.2fx)@." name
        plain.r_cycles buffered.r_cycles
        (plain.r_us /. buffered.r_us))
    [ "saxpy"; "stencil"; "conv1d" ]

let ablation () =
  unroll_ablation ();
  writeback_ablation ();
  header "Ablation: channel capacity (saxpy), junction width (gemm)";
  let w = W.find "saxpy" in
  Fmt.pr "channel capacity (baseline edges):@.";
  List.iter
    (fun cap ->
      let p = W.program w in
      let c = Muir_core.Build.circuit p in
      G.iter_tasks
        (fun t ->
          List.iter
            (fun (e : G.edge) ->
              if e.initial = [] then e.capacity <- max e.capacity cap)
            t.edges)
        c;
      let r = Muir_sim.Sim.run c in
      Fmt.pr "  cap>=%d: %d cycles@." cap
        r.Muir_sim.Sim.stats.total_cycles)
    [ 2; 4; 8 ];
  Fmt.pr "junction width (requests granted/cycle):@.";
  let wg = W.find "gemm" in
  List.iter
    (fun width ->
      let p = W.program wg in
      let c = Muir_core.Build.circuit p in
      G.iter_tasks (fun t -> G.set_junction_width c t.tid width) c;
      let r = Muir_sim.Sim.run c in
      Fmt.pr "  width=%d: %d cycles@." width
        r.Muir_sim.Sim.stats.total_cycles)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Profiler: the bottleneck -> μopt pass loop (§7's methodology)        *)

let profile () =
  header
    "Profiler: stall attribution, and how the blamed structure responds \
     to the bundled stack that widens it";
  let traced name passes =
    let b = Pipeline.build ~passes (Pipeline.of_workload_name name) in
    let tracer = Muir_trace.Trace.create () in
    let r = Pipeline.simulate ~tracer b in
    Muir_trace.Profile.of_run b.p_circuit ~tracer r.counters
  in
  List.iter
    (fun (name, stack_name, stack) ->
      let p0 = traced name [] in
      let p1 = traced name (stack ()) in
      Fmt.pr "@.== %s (baseline %d cycles; %s %d cycles)@." name p0.Muir_trace.Profile.p_cycles
        stack_name p1.Muir_trace.Profile.p_cycles;
      Muir_trace.Profile.report ~top:5 Fmt.stdout p0;
      List.iter
        (fun (s : Muir_trace.Profile.struct_row) ->
          if s.s_stalls > 0 then
            Fmt.pr
              "stall share of %-16s baseline %5.2f%% -> %s %5.2f%%@."
              s.s_name
              (100.0 *. Muir_trace.Profile.struct_share p0 s.s_name)
              stack_name
              (100.0 *. Muir_trace.Profile.struct_share p1 s.s_name))
        p0.Muir_trace.Profile.p_structs)
    [ ("gemm", "loop-stack", fun () -> Opt.Stacks.loop_stack ());
      ("fib", "cilk-stack", fun () -> Opt.Stacks.cilk_stack ());
      ("2mm[T]", "tensor-stack", fun () -> Opt.Stacks.tensor_stack ()) ]

(* ------------------------------------------------------------------ *)
(* Static timing bounds next to the simulator's measured cycles         *)

let timing () =
  header
    "Static timing analysis: max-cycle-ratio lower bounds vs measured \
     cycles, every workload under every registry stack";
  Fmt.pr "@.%-12s %-14s %10s %10s %10s@." "workload" "stack" "bound"
    "measured" "tightness";
  let rows = ref 0 and tight_sum = ref 0.0 in
  let tight_min = ref infinity and tight_max = ref 0.0 in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (s : Opt.Stacks.spec) ->
          let b =
            Pipeline.build ~passes:(s.sp_build s.sp_defaults)
              (Pipeline.of_workload w)
          in
          let bound = Muir_analysis.Timing.bound_cycles b.p_circuit in
          let m = (Pipeline.simulate b).stats.total_cycles in
          let tight =
            if m = 0 then 1.0 else float_of_int bound /. float_of_int m
          in
          incr rows;
          tight_sum := !tight_sum +. tight;
          if tight < !tight_min then tight_min := tight;
          if tight > !tight_max then tight_max := tight;
          Fmt.pr "%-12s %-14s %10d %10d %9.2f@." w.wname s.sp_name bound m
            tight)
        Opt.Stacks.registry)
    W.all;
  Fmt.pr "@.%d pairs; tightness min %.2f mean %.2f max %.2f@." !rows
    !tight_min
    (!tight_sum /. float_of_int (max 1 !rows))
    !tight_max

(* ------------------------------------------------------------------ *)
(* Design-space exploration: the explorer vs the hand-picked stacks     *)

let explore () =
  header
    "Design-space exploration: best-found configuration vs the best \
     predefined stack (grid search, shared evaluation memo)";
  let jobs = max 1 (min 4 (Domain.recommended_domain_count () - 1)) in
  List.iter
    (fun name ->
      let src = Pipeline.of_workload_name name in
      let memo = Muir_dse.Eval.memo () in
      (* Pass 1: just the predefined stacks, each at its own default
         parameters — the configurations a user could have hand-picked. *)
      let predef =
        Muir_dse.Explore.run ~jobs ~memo
          ~grid:(List.map Muir_dse.Config.predefined (Opt.Stacks.names ()))
          src
      in
      (* Pass 2: the full grid over the same memo — the predefined
         points' circuits are reused, never re-simulated.  The grid holds
         every predefined point, so its frontier matches or beats the
         best of them. *)
      let full =
        Muir_dse.Explore.run ~jobs ~budget_evals:128 ~memo src
      in
      Fmt.pr "@.== %s@." name;
      Muir_dse.Explore.pp_result Fmt.stdout full;
      let pbest = Option.get predef.x_best in
      let fbest = Option.get full.x_best in
      let cyc e = Option.get e.Muir_dse.Explore.e_cycles in
      Fmt.pr "best predefined   %-28s %8d cycles %7d ALMs@."
        (Muir_dse.Config.label pbest.e_cfg)
        (cyc pbest) pbest.e_alms;
      Fmt.pr "best found        %-28s %8d cycles %7d ALMs@."
        (Muir_dse.Config.label fbest.e_cfg)
        (cyc fbest) fbest.e_alms;
      Fmt.pr "shared memo       %d distinct circuits over %d configurations@."
        (Hashtbl.length memo) (List.length full.x_evals))
    [ "gemm"; "fib"; "2mm" ]

(* ------------------------------------------------------------------ *)
(* Tensor-graph frontend: what graph-level op fusion pays               *)

let nn () =
  header
    "Tensor-graph frontend: whole-model lowering, fused vs unfused \
     (fusion folds relu into the producing matmul/conv/dense and \
     elides flatten)";
  Fmt.pr "%-8s %-9s %12s %12s %8s %9s@." "model" "stack" "unfused cyc"
    "fused cyc" "saved" "speedup";
  List.iter
    (fun name ->
      let wf = W.nn_workload name in
      let wu = W.nn_workload ~fused:false name in
      List.iter
        (fun (stack_name, passes_of) ->
          let u = run_workload ~passes:(passes_of wu) wu in
          let f = run_workload ~passes:(passes_of wf) wf in
          Fmt.pr "%-8s %-9s %12d %12d %8d %8.2fx@." name stack_name
            u.r_cycles f.r_cycles (u.r_cycles - f.r_cycles)
            (float_of_int u.r_cycles /. float_of_int f.r_cycles))
        [ ("baseline", fun (_ : W.t) -> []); ("best", Pipeline.per_category) ])
    (List.map fst Muir_nn.Models.all)

(* ------------------------------------------------------------------ *)
(* Machine-readable run reports and the benchmark regression gate      *)

module Report = Muir_trace.Report

(** One workload's full run report under [passes].  Deterministic:
    wall seconds are deliberately left out so the emitted JSON is
    byte-stable across machines (see Report's determinism notes). *)
let report_run ?passes ~stack (w : W.t) : Report.run =
  let b, m, r = evaluate ?passes w in
  Pipeline.report ~stack b m r

(** [--json PATH]: every workload at baseline and under its
    per-category best stack, as one suite file.  This is how
    `bench/baseline.json` is produced and what CI's regression gate
    compares against. *)
let suite_json (path : string) =
  let runs =
    List.concat_map
      (fun (w : W.t) ->
        [ report_run ~stack:"baseline" w;
          report_run ~passes:(Pipeline.per_category w) ~stack:"best" w ])
      W.all
  in
  let suite =
    { Report.su_provenance = Report.provenance (); su_runs = runs }
  in
  let oc = open_out path in
  output_string oc (Report.suite_to_json suite);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %d runs (%d workloads x 2 stacks) to %s@."
    (List.length runs) (List.length W.all) path

(** [compare BASE NEW [--tolerance PCT]]: the regression gate.  Exits
    non-zero iff some (workload, stack) pair got more than PCT percent
    slower; runs present on only one side are reported but never
    fail. *)
let compare_reports (base_path : string) (new_path : string)
    (tolerance : float) =
  let load path =
    try Report.load path with
    | Report.Bad_report e ->
      Fmt.epr "%s: %s@." path e;
      exit 2
    | Sys_error e ->
      Fmt.epr "%s@." e;
      exit 2
  in
  let base = load base_path in
  let next = load new_path in
  let cmp = Report.compare_suites ~tolerance base next in
  Report.pp_comparison ~tolerance Fmt.stdout cmp;
  if Report.any_regression cmp then exit 1

(* ------------------------------------------------------------------ *)

let experiments : (string * (unit -> unit)) list =
  [ ("table2", table2);
    ("fig9", fig9);
    ("localization", fun () -> ignore (localization ()));
    ("fig11", fun () -> ignore (fig11 ()));
    ("fig12", fun () -> ignore (fig12 ()));
    ("fig15", fun () -> ignore (fig15 ()));
    ("fig16", fun () -> ignore (fig16 ()));
    ("fig17", fun () -> ignore (fig17 ()));
    ("fig18", fun () -> ignore (fig18 ()));
    ("table3", table3);
    ("table4", table4);
    ("fig1", fig1);
    ("ablation", ablation);
    ("nn", nn);
    ("profile", profile);
    ("timing", timing);
    ("explore", explore) ]

let run_experiments args =
  let selected =
    if args = [] then experiments
    else
      List.map
        (fun a ->
          match List.assoc_opt a experiments with
          | Some f -> (a, f)
          | None ->
            Fmt.epr "unknown experiment %s (have: %s)@." a
              (String.concat " " (List.map fst experiments));
            exit 1)
        args
  in
  List.iter (fun (_, f) -> f ()) selected

let () =
  let args =
    match Array.to_list Sys.argv with
    | _ :: rest -> List.filter (fun a -> a <> "--") rest
    | [] -> []
  in
  match args with
  | [ "--json"; path ] -> suite_json path
  | "--json" :: _ ->
    Fmt.epr "usage: bench --json REPORT.json@.";
    exit 2
  | "compare" :: rest -> (
    match rest with
    | [ base; next ] -> compare_reports base next 5.0
    | [ base; next; "--tolerance"; pct ] -> (
      match float_of_string_opt pct with
      | Some t when t >= 0.0 -> compare_reports base next t
      | _ ->
        Fmt.epr "compare: bad tolerance %S@." pct;
        exit 2)
    | _ ->
      Fmt.epr "usage: bench compare BASE.json NEW.json [--tolerance PCT]@.";
      exit 2)
  | _ -> run_experiments args
