(** ARM Cortex-A9-class timing model (the §6.6 comparison baseline):
    dual-issue, 1 GHz, partial out-of-order latency hiding, 32 KB L1,
    VFP latencies, libm calls for exp/sqrt.  Driven by the golden
    interpreter's dynamic trace, so it executes exactly the program
    the accelerator implements. *)

type result = {
  cpu_cycles : float;  (** at 1 GHz, cycles = nanoseconds *)
  cpu_instrs : int;
  cpu_l1_misses : int;
}

val run : Muir_ir.Program.t -> result
(** Run a program's [main] on the CPU model. *)

val nanoseconds : result -> float
(** Wall-clock nanoseconds at the modelled 1 GHz clock. *)
