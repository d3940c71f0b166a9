(** Behaviour-level compiler optimizations (the "compiler opt" stage of
    the toolchain in Fig. 3 of the paper): constant folding and dead
    code elimination.  These run before μIR construction, mirroring the
    paper's reliance on software-compiler cleanups ahead of the
    microarchitectural passes. *)

open Instr

let const_of_value (v : Types.value) : operand option =
  match v with
  | VBool b -> Some (CBool b)
  | VInt i -> Some (CInt i)
  | VFloat f -> Some (CFloat f)
  | _ -> None

let is_const = function
  | CBool _ | CInt _ | CFloat _ -> true
  | Reg _ | GlobalAddr _ -> false

let value_of_const = function
  | CBool b -> Types.VBool b
  | CInt i -> Types.VInt i
  | CFloat f -> Types.VFloat f
  | _ -> invalid_arg "value_of_const"

(** Fold instructions whose operands are all literal constants, and
    propagate the results.  Iterates to a fixed point within each
    function.  Returns the number of folded instructions. *)
let constant_fold_func (f : Func.t) : int =
  let folded = ref 0 in
  let substitution : (reg, operand) Hashtbl.t = Hashtbl.create 16 in
  let subst = subst substitution in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Func.block) ->
        b.instrs <-
          List.filter_map
            (fun (i : Instr.t) ->
              let i = map_operands subst i in
              match i.kind with
              | (Bin _ | Fbin _ | Icmp _ | Fcmp _ | Funary _ | Cast _
                | Select _ | Gep _)
                when List.for_all is_const (operands i) -> (
                let v = Eval.pure i.kind (List.map value_of_const (operands i)) in
                match const_of_value v with
                | Some c ->
                  Hashtbl.replace substitution i.id c;
                  incr folded;
                  changed := true;
                  None
                | None -> Some i)
              | _ -> Some i)
            b.instrs;
        match map_term subst b.term with
        | CondBr (CBool c, t, e) ->
          b.term <- Br (if c then t else e);
          changed := true
        | t -> b.term <- t)
      f.blocks
  done;
  !folded

(** Remove side-effect-free instructions whose results are never used.
    Returns the number of removed instructions. *)
let dead_code_elim_func (f : Func.t) : int =
  let removed = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let used : (reg, unit) Hashtbl.t = Hashtbl.create 64 in
    Func.iter_instrs
      (fun i -> List.iter (fun r -> Hashtbl.replace used r ()) (used_regs i))
      f;
    List.iter
      (fun (b : Func.block) ->
        List.iter (fun r -> Hashtbl.replace used r ()) (term_used_regs b.term))
      f.blocks;
    List.iter
      (fun (b : Func.block) ->
        let keep, drop =
          List.partition
            (fun (i : Instr.t) ->
              has_side_effect i || is_memory i
              || Types.equal_ty i.ty TUnit
              || Hashtbl.mem used i.id)
            b.instrs
        in
        if drop <> [] then begin
          removed := !removed + List.length drop;
          changed := true;
          b.instrs <- keep
        end)
      f.blocks
  done;
  !removed

(** Strength reduction: multiply/divide/modulo by a power-of-two
    constant becomes a shift/mask — keeps constant-stride address
    arithmetic off the multipliers, as any production compiler would.
    Returns the number of rewritten instructions. *)
let strength_reduce_func (f : Func.t) : int =
  let count = ref 0 in
  let log2_exact (i : int64) : int option =
    let n = Int64.to_int i in
    if n > 0 && n land (n - 1) = 0 then
      Some (int_of_float (Float.round (Float.log2 (float_of_int n))))
    else None
  in
  List.iter
    (fun (b : Func.block) ->
      b.instrs <-
        List.map
          (fun (ins : Instr.t) ->
            let rewrite kind =
              incr count;
              { ins with kind }
            in
            match ins.kind with
            | Bin (Mul, a, CInt c) | Bin (Mul, CInt c, a) -> (
              (* shifting is exact for two's-complement multiply;
                 division/modulo are left alone (signed semantics) *)
              match log2_exact c with
              | Some s -> rewrite (Bin (Shl, a, CInt (Int64.of_int s)))
              | None -> ins)
            | _ -> ins)
          b.instrs)
    f.blocks;
  !count

(** Run the standard cleanup pipeline on every function. *)
let optimize (p : Program.t) : Program.t =
  List.iter
    (fun f ->
      ignore (constant_fold_func f);
      ignore (strength_reduce_func f);
      ignore (dead_code_elim_func f))
    p.funcs;
  p
