(** One op of each in-process workload: the benchmark's own calls into
    each layer's public function, in pipeline order.

    A [suite-sim] op is what [muirc simulate] does for one workload,
    from source text to a JSON run report: compile → build → optimize →
    lower → model → simulate → report.  A [static-check] op is the
    static half of [muirc check --timing]: compile → build → optimize →
    check → timing.  With a {!recorder} every layer call is timed from
    here (the traced run); without one each call is made bare. *)

module W = Muir_workloads.Workloads
module G = Muir_core.Graph
module Opt = Muir_opt
module R = Muir_trace.Report
module Sim = Muir_sim.Sim
module A = Muir_analysis

(* ------------------------------------------------------------------ *)
(* Layers and the recorder                                             *)

type layer =
  | Compile | Build | Optimize | Lower | Model | Simulate | Report | Check
  | Timing

let all_layers =
  [ Compile; Build; Optimize; Lower; Model; Simulate; Report; Check; Timing ]

let index = function
  | Compile -> 0 | Build -> 1 | Optimize -> 2 | Lower -> 3 | Model -> 4
  | Simulate -> 5 | Report -> 6 | Check -> 7 | Timing -> 8

let name = function
  | Compile -> "compile" | Build -> "build" | Optimize -> "optimize"
  | Lower -> "lower" | Model -> "model" | Simulate -> "simulate"
  | Report -> "report" | Check -> "check" | Timing -> "timing"

(** One op's layer calls: (layer, absolute start, seconds), newest
    first. *)
type recorder = { mutable segs : (layer * float * float) list }

let call (rc : recorder option) (l : layer) (f : unit -> 'a) : 'a =
  match rc with
  | None -> f ()
  | Some rc ->
    let t0 = Unix.gettimeofday () in
    let r = f () in
    rc.segs <- (l, t0, Unix.gettimeofday () -. t0) :: rc.segs;
    r

(* ------------------------------------------------------------------ *)
(* The 48 (workload × stack) pairs                                     *)

type pair = { w : W.t; stack : string; passes : Opt.Pass.t list }

(** The per-category "best" stack of [bench/baseline.json]: the oracle
    table only matches when the passes are the same. *)
let best_passes (w : W.t) : Opt.Pass.t list =
  if w.tensor then
    Opt.Stacks.tensor_stack ()
    @ [ Opt.Structural.tiling_pass ~scope:`All_loops ~tiles:4 ();
        Opt.Structural.scratchpad_banking_pass ~banks:4 () ]
  else
    match w.category with
    | W.Cilk -> Opt.Stacks.cilk_stack ~tiles:4 ~banks:2 ()
    | _ -> Opt.Stacks.best_loop_stack ()

let pairs (ws : W.t list) : pair array =
  ws
  |> List.concat_map (fun (w : W.t) ->
         [ { w; stack = "baseline"; passes = [] };
           { w; stack = "best"; passes = best_passes w } ])
  |> Array.of_list

let pair_name (p : pair) = p.w.wname ^ "/" ^ p.stack

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)

type front = {
  program : Muir_ir.Program.t;
  circuit : G.circuit;
  nodes : int;          (** μIR nodes as built *)
  nodes_after : int;    (** after the μopt passes *)
  applied : int;        (** passes that changed the graph *)
}

let front (rc : recorder option) (p : pair) : front =
  let program = call rc Compile (fun () -> W.program p.w) in
  let circuit =
    call rc Build (fun () -> Muir_core.Build.circuit ~name:p.w.wname program)
  in
  let nodes = fst (G.graph_size circuit) in
  let reports = call rc Optimize (fun () -> Opt.Pass.run_all p.passes circuit) in
  { program; circuit; nodes; nodes_after = fst (G.graph_size circuit);
    applied =
      List.length
        (List.filter
           (fun (r : Opt.Pass.report) -> r.delta_nodes <> 0 || r.delta_edges <> 0)
           reports) }

type sim_out = {
  s_front : front;
  s_result : Sim.result;
  s_report : R.run;
  s_json : string;
}

let simulate_op (rc : recorder option) (p : pair) : sim_out =
  let f = front rc p in
  let d = call rc Lower (fun () -> Muir_rtl.Lower.design f.circuit) in
  let fp, ac =
    call rc Model (fun () -> (Muir_model.Model.fpga d, Muir_model.Model.asic d))
  in
  let r = call rc Simulate (fun () -> Sim.run ~jobs:1 f.circuit) in
  let rep, json =
    call rc Report (fun () ->
        let mem =
          List.map
            (fun (s : Muir_sim.Memsys.struct_stats) ->
              { R.m_name = s.ss_name; m_accesses = s.ss_accesses;
                m_hits = s.ss_hits; m_misses = s.ss_misses;
                m_conflicts = s.ss_conflicts })
            r.stats.mem
        in
        let rep =
          R.make ~workload:p.w.wname ~stack:p.stack ~mem
            ~fpga:
              { R.f_mhz = fp.fr_mhz; f_alms = fp.fr_alms; f_regs = fp.fr_regs;
                f_dsps = fp.fr_dsps; f_brams = fp.fr_brams }
            ~asic:{ R.a_ghz = ac.ar_ghz; a_area = ac.ar_area }
            ~total_cycles:r.stats.total_cycles f.circuit r.counters
        in
        (rep, R.to_json rep))
  in
  { s_front = f; s_result = r; s_report = rep; s_json = json }

type check_out = {
  c_front : front;
  c_diags : A.Diag.t list;
  c_timing : A.Timing.t;
}

let check_op (rc : recorder option) (p : pair) : check_out =
  let f = front rc p in
  let diags = call rc Check (fun () -> A.Check.circuit f.circuit) in
  let timing = call rc Timing (fun () -> A.Timing.analyze f.circuit) in
  { c_front = f; c_diags = diags; c_timing = timing }

(* ------------------------------------------------------------------ *)
(* Oracles (run outside the timed interval)                            *)

(** The golden interpreter's final values of [w]'s output arrays. *)
let golden (w : W.t) : (string * Muir_ir.Types.value array) list =
  let p = W.program w in
  let _, mem, _ = Muir_ir.Interp.run p in
  List.map (fun g -> (g, Muir_ir.Memory.dump_global mem p g)) w.outputs

(** [None] when the simulated outputs equal the golden ones and cycles
    and firings equal the committed baseline entry; otherwise the
    finding. *)
let verify_sim ~(golden : (string * Muir_ir.Types.value array) list)
    ~(base : R.run) (p : pair) (o : sim_out) : string option =
  let mism =
    List.find_map
      (fun (g, want) ->
        let got =
          Muir_ir.Memory.dump_global o.s_result.memory o.s_front.program g
        in
        let bad = ref None in
        Array.iteri
          (fun i x ->
            if !bad = None && not (Muir_ir.Types.value_close x got.(i)) then
              bad := Some (Fmt.str "%s[%d] golden %s, simulated %s" g i
                             (Muir_ir.Types.value_to_string x)
                             (Muir_ir.Types.value_to_string got.(i))))
          want;
        !bad)
      golden
  in
  match mism with
  | Some m -> Some (Fmt.str "%s: output %s" (pair_name p) m)
  | None ->
    if o.s_report.r_cycles <> base.r_cycles || o.s_report.r_fires <> base.r_fires
    then
      Some
        (Fmt.str "%s: %d cycles / %d fires, baseline.json has %d / %d"
           (pair_name p) o.s_report.r_cycles o.s_report.r_fires base.r_cycles
           base.r_fires)
    else None

(** Every registry pair simulates race-free to completion, so the static
    half must find no errors, and its cycle bound must not exceed the
    measured cycles (the timing analysis's soundness contract). *)
let verify_check ~(base : R.run) (p : pair) (o : check_out) : string option =
  match A.Diag.errors o.c_diags with
  | d :: _ -> Some (Fmt.str "%s: error diagnostic %a" (pair_name p) A.Diag.pp d)
  | [] ->
    if o.c_timing.bound > base.r_cycles then
      Some
        (Fmt.str "%s: timing bound %d exceeds the measured %d cycles"
           (pair_name p) o.c_timing.bound base.r_cycles)
    else None
