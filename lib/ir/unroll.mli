(** Behaviour-level loop unrolling (the software transformation the
    paper's front-end leans on to expose hardware parallelism).

    Fully unrolls innermost loops with straight-line bodies whose
    {!Loops.trip_count} is known: a constant-init induction variable
    stepped up or down by a constant, under any comparison against a
    constant.  Loops with conditional control flow, calls, spawns, or
    dynamic bounds are left untouched. *)

val unroll_func : ?max_trip:int -> Func.t -> int
(** Unroll every eligible loop of one function; returns how many. *)

val unroll : ?max_trip:int -> Program.t -> int
(** Unroll across the whole program, then re-run the cleanup passes.
    Returns the number of loops unrolled. *)
