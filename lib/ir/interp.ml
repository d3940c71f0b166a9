(** Golden reference interpreter.

    Executes the compiler IR with sequential semantics ([spawn] runs
    its child immediately — the "serial elision" of Cilk, which is a
    legal schedule of any well-formed fork-join program).  Every other
    execution substrate in the repository is checked against the final
    memory state this interpreter produces.

    The interpreter can emit a dynamic trace, which the ARM-A9 timing
    model consumes. *)

open Types
open Instr

(** One dynamically executed instruction, as seen by timing models. *)
type trace_event = {
  ev_kind : kind;
  ev_addr : int option;  (** effective word address for memory ops *)
}

type stats = {
  mutable dyn_instrs : int;
  mutable dyn_branches : int;
}

let new_stats () = { dyn_instrs = 0; dyn_branches = 0 }

exception Step_limit_exceeded

type ctx = {
  prog : Program.t;
  mem : Memory.t;
  stats : stats;
  tracer : (trace_event -> unit) option;
  on_block : (string -> Instr.label -> unit) option;
  mutable steps : int;
}

(** Blocks a run may enter before it is cut off as non-terminating. *)
let max_steps = 50_000_000

let resolve (env : value array) (op : operand) : value =
  match op with
  | Reg r -> env.(r)
  | CBool b -> VBool b
  | CInt i -> VInt i
  | CFloat f -> VFloat f
  | GlobalAddr _ -> invalid_arg "Interp.resolve: unresolved global"

let trace ctx (i : Instr.t) addr =
  ctx.stats.dyn_instrs <- ctx.stats.dyn_instrs + 1;
  match ctx.tracer with
  | None -> ()
  | Some f -> f { ev_kind = i.kind; ev_addr = addr }

let rec run_func (ctx : ctx) (f : Func.t) (args : value list) : value =
  let ctx_fname = f.Func.name in
  let env = Array.make (max f.Func.next_reg 1) VUnit in
  List.iteri
    (fun i v ->
      match List.nth_opt f.Func.params i with
      | Some (p : Func.param) -> env.(p.preg) <- v
      | None -> env.(i) <- v)
    args;
  let resolve_op op =
    match op with
    | GlobalAddr g -> vint (Program.find_global ctx.prog g).gbase
    | _ -> resolve env op
  in
  let rec run_block (blk : Func.block) (prev : label option) : value =
    ctx.steps <- ctx.steps + 1;
    if ctx.steps > max_steps then raise Step_limit_exceeded;
    (match ctx.on_block with
    | Some f -> f ctx_fname blk.label
    | None -> ());
    (* Phis read their operands simultaneously on entry. *)
    let phis, rest =
      List.partition (fun i -> match i.kind with Phi _ -> true | _ -> false)
        blk.instrs
    in
    let phi_values =
      List.map
        (fun (i : Instr.t) ->
          match i.kind, prev with
          | Phi incoming, Some p -> (
            match List.assoc_opt p incoming with
            | Some op -> (i.id, resolve_op op)
            | None ->
              invalid_arg
                (Fmt.str "Interp: phi %%%d has no incoming for bb%d" i.id p))
          | Phi _, None ->
            invalid_arg "Interp: phi in entry block"
          | _ -> assert false)
        phis
    in
    List.iter (fun (r, v) -> env.(r) <- v) phi_values;
    List.iter (fun (i : Instr.t) -> trace ctx i None) phis;
    List.iter (fun i -> exec_instr i) rest;
    match blk.term with
    | Br l -> run_block (Func.block f l) (Some blk.label)
    | CondBr (c, t, e) ->
      ctx.stats.dyn_branches <- ctx.stats.dyn_branches + 1;
      let l = if truth (resolve_op c) then t else e in
      run_block (Func.block f l) (Some blk.label)
    | Ret None -> VUnit
    | Ret (Some op) -> resolve_op op
  and exec_instr (i : Instr.t) : unit =
    let v =
      match i.kind with
      | Bin _ | Fbin _ | Icmp _ | Fcmp _ | Funary _ | Cast _ | Select _
      | Gep _ | Tbin _ | Tunary _ ->
        let args = List.map resolve_op (operands i) in
        trace ctx i None;
        Eval.pure i.kind args
      | Load { addr } ->
        let a = Int64.to_int (as_int (resolve_op addr)) in
        trace ctx i (Some a);
        Memory.load ctx.mem a
      | Store { addr; value } ->
        let a = Int64.to_int (as_int (resolve_op addr)) in
        trace ctx i (Some a);
        Memory.store ctx.mem a (resolve_op value);
        VUnit
      | Tload { addr; row_stride; shape } ->
        let a = Int64.to_int (as_int (resolve_op addr)) in
        let s = Int64.to_int (as_int (resolve_op row_stride)) in
        trace ctx i (Some a);
        VTensor (Memory.load_tile ctx.mem ~addr:a ~row_stride:s shape)
      | Tstore { addr; row_stride; value; shape } ->
        let a = Int64.to_int (as_int (resolve_op addr)) in
        let s = Int64.to_int (as_int (resolve_op row_stride)) in
        trace ctx i (Some a);
        Memory.store_tile ctx.mem ~addr:a ~row_stride:s shape
          (as_tensor (resolve_op value));
        VUnit
      | Call { callee; args } | Spawn { callee; args } ->
        let argv = List.map resolve_op args in
        trace ctx i None;
        run_func ctx (Program.find_func ctx.prog callee) argv
      | Sync ->
        trace ctx i None;
        VUnit
      | Phi _ -> assert false
    in
    if not (equal_ty i.ty TUnit) then env.(i.id) <- v
  in
  run_block (Func.entry f) None

(** Run [entry] (default ["main"]) to completion.  Returns the entry
    function's return value, the final memory and dynamic stats. *)
let run ?(entry = "main") ?(args = []) ?tracer ?on_block (prog : Program.t) :
    value * Memory.t * stats =
  let ctx =
    { prog; mem = Memory.create prog; stats = new_stats (); tracer;
      on_block; steps = 0 }
  in
  let f = Program.find_func prog entry in
  let v = run_func ctx f args in
  (v, ctx.mem, ctx.stats)
