(** ARM Cortex-A9-class timing model (the paper's §6.6 comparison
    point: dual-issue out-of-order, 1 GHz, running the same programs).

    The model consumes the golden interpreter's dynamic trace, so it
    executes exactly the program the accelerator implements.  Costs:

    - issue bandwidth: 2 instructions per cycle;
    - an out-of-order window hides roughly half of each long-latency
      producer's latency (int mul/div, FP, libm calls for exp/sqrt —
      the A9's VFP has no exp instruction);
    - a 32 KB 4-way L1 with 8-word lines; a miss costs the DRAM round
      trip; no prefetcher is modelled (these kernels stream, so this
      mildly favours the accelerator — noted in EXPERIMENTS.md);
    - branches: 2-cycle average redirect cost on the ~6% of branches a
      simple predictor misses in loopy code;
    - call/spawn linkage overhead per invocation.  Cilk constructs are
      executed serially (the paper's A9 numbers also note "ARM does
      not support Cilk").

    The calibration below is one fixed A9 configuration; every
    comparison in the paper runs against it. *)

open Muir_ir
module I = Instr

let issue_width = 2.0
let ooo_hiding = 0.5  (* fraction of producer latency hidden *)
let l1_kb = 32
let l1_ways = 4
let line_words = 8
let miss_cycles = 70.0
let branch_miss_rate = 0.06
let branch_penalty = 9.0
let call_overhead = 6.0

(* Simple set-associative LRU cache for the trace: one list of line
   numbers per set, most recent first. *)
let sets = max 1 (l1_kb * 1024 / 4 / (line_words * l1_ways))

let cache_access (lines : int list array) (addr : int) : bool =
  let line = addr / line_words in
  let set = line mod sets in
  let cur = lines.(set) in
  if List.mem line cur then begin
    lines.(set) <- line :: List.filter (fun l -> l <> line) cur;
    true
  end
  else begin
    let kept =
      if List.length cur >= l1_ways then
        List.filteri (fun i _ -> i < l1_ways - 1) cur
      else cur
    in
    lines.(set) <- line :: kept;
    false
  end

(** Extra (post-issue) latency of an instruction, in cycles. *)
let op_latency (k : I.kind) : float =
  match k with
  | I.Bin (I.Mul, _, _) -> 3.0
  | I.Bin ((I.Sdiv | I.Srem), _, _) -> 14.0
  | I.Fbin ((I.Fadd | I.Fsub), _, _) -> 9.0  (* A9 VFP add *)
  | I.Fbin (I.Fmul, _, _) -> 6.0
  | I.Fbin (I.Fdiv, _, _) -> 25.0
  | I.Funary ((I.Fexp | I.Fsqrt), _) -> 70.0  (* libm call *)
  | I.Fcmp _ -> 2.0
  | I.Tbin (I.Tmul, _, _) -> 8.0 *. 4.0  (* 8 scalar MACs on the VFP *)
  | I.Tbin (I.Tadd, _, _) -> 4.0 *. 4.0
  | I.Tunary (I.Trelu, _) -> 4.0 *. 2.0
  | _ -> 0.0

type result = {
  cpu_cycles : float;  (** at 1 GHz, cycles = ns *)
  cpu_instrs : int;
  cpu_l1_misses : int;
}

(** Run [prog] on the CPU model. *)
let run (prog : Program.t) : result =
  let cache = Array.make sets [] in
  let cycles = ref 0.0 in
  let instrs = ref 0 in
  let misses = ref 0 in
  let tracer (ev : Interp.trace_event) =
    incr instrs;
    cycles := !cycles +. (1.0 /. issue_width);
    cycles := !cycles +. ((1.0 -. ooo_hiding) *. op_latency ev.ev_kind);
    (match ev.ev_kind, ev.ev_addr with
    | (I.Load _ | I.Store _), Some a ->
      if not (cache_access cache a) then begin
        incr misses;
        cycles := !cycles +. miss_cycles
      end
    | (I.Tload _ | I.Tstore _), Some a ->
      (* four word accesses per tile *)
      for w = 0 to 3 do
        if not (cache_access cache (a + w)) then begin
          incr misses;
          cycles := !cycles +. miss_cycles
        end
      done
    | _ -> ());
    match ev.ev_kind with
    | I.Call _ | I.Spawn _ -> cycles := !cycles +. call_overhead
    | _ -> ()
  in
  let _, _, stats = Interp.run ~tracer prog in
  (* branch redirects *)
  cycles :=
    !cycles
    +. (float_of_int stats.dyn_branches *. branch_miss_rate
        *. branch_penalty);
  { cpu_cycles = !cycles; cpu_instrs = !instrs; cpu_l1_misses = !misses }

(** Wall-clock nanoseconds at the A9's 1 GHz. *)
let nanoseconds (r : result) = r.cpu_cycles
