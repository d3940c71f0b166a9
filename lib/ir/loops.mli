(** Natural-loop detection, used to cross-check the loop metadata the
    structured front-end records. *)

type natural_loop = {
  header : Instr.label;
  latches : Instr.label list;
  blocks : Instr.label list;
}

val analyze : Func.t -> natural_loop list
(** Natural loops from back edges whose header dominates the latch. *)

val check_metadata : Func.t -> (unit, string) result
(** Does the recorded {!Func.loop_info} agree with the CFG? *)

val inductions : Func.t -> Func.loop_info -> (Instr.reg * int) list
(** The inductions of a loop with their steps: the header phis whose
    latch value is the phi plus or minus a nonzero constant.  This is
    the one induction rule; trip counts, μIR construction's
    memory-order chains and race detection all read it. *)

val trip_count : ?budget:int -> Func.t -> Func.loop_info -> int option
(** Statically-known number of body executions of a counted loop
    (constant-init, constant-step induction phi compared against a
    constant bound, single exit through the header).  [None] when the
    shape is anything else, or when the loop runs more than [budget]
    (default 1,000,000) times — callers must treat unknown as "no
    static bound". *)
