(** Functions: a CFG of basic blocks plus the loop metadata recorded by
    the structured front-end lowering.  The metadata is re-derived and
    cross-checked by {!Loops.analyze}, so passes may trust it. *)

open Types

type block = {
  label : Instr.label;
  mutable instrs : Instr.t list;      (** in execution order *)
  mutable term : Instr.terminator;
}

(** A formal parameter.  The bound register is carried explicitly — the
    front-end assigns [0..n-1], but nothing downstream may assume
    contiguity (IR-level transforms are free to renumber). *)
type param = {
  preg : Instr.reg;
  pname : string;
  pty : ty;
}

type loop_info = {
  preheader : Instr.label;
  header : Instr.label;
  latch : Instr.label;
  exit : Instr.label;
  body : Instr.label list;  (** all blocks of the loop, header & latch
                                included, inner-loop blocks included *)
  depth : int;              (** 1 = outermost *)
  parallel : bool;          (** body iterations were a [parallel_for] *)
}

type t = {
  name : string;
  params : param list;
  ret : ty;
  mutable blocks : block list;  (** entry first, otherwise topological-ish *)
  mutable loops : loop_info list;
  mutable next_reg : int;
}

let param_tys (f : t) : ty list = List.map (fun p -> p.pty) f.params
let param_regs (f : t) : Instr.reg list = List.map (fun p -> p.preg) f.params

(** The parameter bound to register [r], if any. *)
let param_of_reg (f : t) (r : Instr.reg) : param option =
  List.find_opt (fun p -> p.preg = r) f.params

let entry (f : t) =
  match f.blocks with
  | [] -> invalid_arg "Func.entry: no blocks"
  | b :: _ -> b

let block (f : t) (l : Instr.label) =
  match List.find_opt (fun b -> b.label = l) f.blocks with
  | Some b -> b
  | None -> invalid_arg (Fmt.str "Func.block: bb%d not in %s" l f.name)

let successors (b : block) =
  match b.term with
  | Br l -> [ l ]
  | CondBr (_, t, f) -> if t = f then [ t ] else [ t; f ]
  | Ret _ -> []

(** Map from block label to predecessor labels. *)
let predecessors (f : t) : (Instr.label, Instr.label list) Hashtbl.t =
  let preds = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace preds b.label []) f.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let cur = try Hashtbl.find preds s with Not_found -> [] in
          Hashtbl.replace preds s (b.label :: cur))
        (successors b))
    f.blocks;
  preds

let iter_instrs f_instr (f : t) =
  List.iter (fun b -> List.iter f_instr b.instrs) f.blocks

let fold_instrs fn acc (f : t) =
  List.fold_left
    (fun acc b -> List.fold_left fn acc b.instrs)
    acc f.blocks

let find_instr (f : t) (r : Instr.reg) =
  let found = ref None in
  iter_instrs (fun i -> if i.Instr.id = r then found := Some i) f;
  !found

let pp ppf (f : t) =
  Fmt.pf ppf "@[<v>func @%s(%a) : %a {@,"
    f.name
    Fmt.(list ~sep:comma
           (fun ppf p -> pf ppf "%s:%a=%%%d" p.pname pp_ty p.pty p.preg))
    f.params pp_ty f.ret;
  List.iter
    (fun b ->
      Fmt.pf ppf "bb%d:@," b.label;
      List.iter (fun i -> Fmt.pf ppf "  %a@," Instr.pp i) b.instrs;
      Fmt.pf ppf "  %a@," Instr.pp_terminator b.term)
    f.blocks;
  List.iter
    (fun (lp : loop_info) ->
      Fmt.pf ppf "; loop hdr=bb%d latch=bb%d exit=bb%d depth=%d%s@,"
        lp.header lp.latch lp.exit lp.depth
        (if lp.parallel then " parallel" else ""))
    f.loops;
  Fmt.pf ppf "}@]"
