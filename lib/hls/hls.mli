(** Commercial-HLS baseline model (the §5.2 comparison): statically
    list-scheduled basic blocks sequenced by a central FSM, pipelined
    innermost loops, serialized nested loops, streaming-buffer
    inference for affine access patterns, and a ~20% clock deficit
    against the μIR dataflow.  Driven by the golden interpreter. *)

type sched = {
  cost : (string * Muir_ir.Instr.label, float) Hashtbl.t;
      (** cycles charged per dynamic visit of each block *)
  loop_ii : (string * Muir_ir.Instr.label, float) Hashtbl.t;
      (** initiation interval of each pipelined innermost loop *)
}

val analyze : Muir_ir.Program.t -> sched
(** The static schedule (exposed for tests). *)

type result = {
  hls_cycles : float;
  clock_ratio : float;  (** divide the μIR clock by this for HLS MHz *)
}

val run : Muir_ir.Program.t -> result
(** Run a program's [main] under the HLS timing model. *)
