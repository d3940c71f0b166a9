(** The access analysis that μIR construction and race detection
    share: one expansion of addresses into affine forms, one footprint
    fixpoint over the call graph, and one cross-wave test.

    An address expands to a {!Affine} form whose base names the global
    array it points into and whose leaves are values the expansion
    cannot see through, keyed by function and register.  Add, sub, and
    mul or shl by a constant fold into the form, and so does gep; any
    other result (a phi, a parameter, a load, a call) is its own leaf.
    Each function is expanded once per program. *)

(** A leaf is a register tagged with its function, so a callee's
    leaves survive substitution into its caller's forms. *)
type leaf = string * Instr.reg

type form = (string, leaf) Affine.t

type access = {
  space : string option;  (** the global array; [None]: could be anywhere *)
  write : bool;
  form : form option;     (** [None]: the whole space *)
}

(** A footprint: the spaces a region may touch, each with whether it
    may write. *)
type touch = (string option * bool) list

type t = {
  forms : (string, (Instr.reg, form) Hashtbl.t) Hashtbl.t;
  calls : (string, touch) Hashtbl.t Lazy.t;   (** through calls *)
  spawns : (string, touch) Hashtbl.t Lazy.t;  (** through calls and spawns *)
}

(* The form of operand [op] of [fn] under [env]: a register [env] has
   not folded is a leaf, and a float has no form. *)
let operand env (fn : string) (op : Instr.operand) : form option =
  match op with
  | Reg r -> (
    match Hashtbl.find_opt env r with
    | Some a -> Some a
    | None -> Some (Affine.leaf (fn, r)))
  | CInt i -> Some (Affine.const (Int64.to_int i))
  | CBool b -> Some (Affine.const (if b then 1 else 0))
  | GlobalAddr g -> Some (Affine.of_base g)
  | CFloat _ -> None

let expand (f : Func.t) : (Instr.reg, form) Hashtbl.t =
  let env = Hashtbl.create 64 in
  let ( let* ) = Option.bind in
  let of_op = operand env f.name in
  let eval (i : Instr.t) : form option =
    match i.kind with
    | Bin (Add, a, b) ->
      let* a = of_op a in
      let* b = of_op b in
      Affine.add a b
    | Bin (Sub, a, b) ->
      let* a = of_op a in
      let* b = of_op b in
      let* nb = Affine.scale (-1) b in
      Affine.add a nb
    | Bin (Mul, a, b) -> (
      let* a = of_op a in
      let* b = of_op b in
      match (Affine.is_const a, Affine.is_const b) with
      | true, _ -> Affine.scale a.konst b
      | _, true -> Affine.scale b.konst a
      | _ -> None)
    | Bin (Shl, a, b) ->
      let* a = of_op a in
      let* b = of_op b in
      if Affine.is_const b && b.konst >= 0 && b.konst < 31 then
        Affine.scale (1 lsl b.konst) a
      else None
    | Gep { base; index; scale } ->
      let* b = of_op base in
      let* i = of_op index in
      let* si = Affine.scale scale i in
      Affine.add b si
    | _ -> None
  in
  (* A result the rules do not fold stays out of [env]: [operand]
     makes it its own leaf. *)
  Func.iter_instrs
    (fun (i : Instr.t) ->
      Option.iter (Hashtbl.replace env i.id) (eval i))
    f;
  env

let form (t : t) (fn : string) (op : Instr.operand) : form option =
  operand (Hashtbl.find t.forms fn) fn op

(** The access of memory instruction [i] of [f].  A tile sweeps a
    rectangle, so a tile access keeps its array and has no form. *)
let access (t : t) (f : Func.t) (i : Instr.t) : access option =
  Option.map
    (fun (addr, write) ->
      match (form t f.name addr, i.kind) with
      | Some { base = Some g; _ }, (Tload _ | Tstore _) ->
        { space = Some g; write; form = None }
      | Some ({ base = Some g; _ } as a), _ ->
        { space = Some g; write; form = Some a }
      | _ -> { space = None; write; form = None })
    (Instr.mem_access i)

let accesses (t : t) (f : Func.t) : access list =
  Func.fold_instrs
    (fun acc i -> match access t f i with Some a -> a :: acc | None -> acc)
    [] f

(* [acc] with what [extra] adds prepended, in [extra]'s order. *)
let union acc extra =
  List.fold_left
    (fun acc x -> if List.mem x acc then acc else x :: acc)
    acc extra

(* What the instructions of [labels] touch themselves, and the
   functions they call, and spawn when [spawns]. *)
let direct (t : t) ~spawns (f : Func.t) (labels : Instr.label list) :
    touch * string list =
  List.fold_left
    (fun acc l ->
      List.fold_left
        (fun (touch, callees) (i : Instr.t) ->
          match (access t f i, i.kind) with
          | Some a, _ -> (union touch [ (a.space, a.write) ], callees)
          | None, Call { callee; _ } -> (touch, union callees [ callee ])
          | None, Spawn { callee; _ } when spawns ->
            (touch, union callees [ callee ])
          | _ -> (touch, callees))
        acc (Func.block f l).instrs)
    ([], []) labels

let labels (f : Func.t) = List.map (fun (b : Func.block) -> b.label) f.blocks

(* Every function's footprint, with its callees' to a fixpoint. *)
let fixpoint (t : t) (p : Program.t) ~spawns : (string, touch) Hashtbl.t =
  let touch = Hashtbl.create 16 and callees = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) ->
      let d, cs = direct t ~spawns f (labels f) in
      Hashtbl.replace touch f.name d;
      Hashtbl.replace callees f.name cs)
    p.funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Func.t) ->
        let cur = Hashtbl.find touch f.name in
        let merged =
          List.fold_left
            (fun acc c ->
              union acc (Option.value (Hashtbl.find_opt touch c) ~default:[]))
            cur (Hashtbl.find callees f.name)
        in
        if List.length merged <> List.length cur then begin
          Hashtbl.replace touch f.name merged;
          changed := true
        end)
      p.funcs
  done;
  touch

let of_program (p : Program.t) : t =
  let forms = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) -> Hashtbl.replace forms f.name (expand f))
    p.funcs;
  let rec t =
    { forms;
      calls = lazy (fixpoint t p ~spawns:false);
      spawns = lazy (fixpoint t p ~spawns:true) }
  in
  t

(** What function [fn] may touch, with everything its calls reach —
    and its spawns, when [spawns]. *)
let footprint (t : t) ~spawns (fn : string) : touch =
  Option.value ~default:[]
    (Hashtbl.find_opt (Lazy.force (if spawns then t.spawns else t.calls)) fn)

(** What the instructions of [labels] in [f] may touch, with
    everything their calls reach (and spawns, when [spawns]). *)
let touch (t : t) ~spawns (f : Func.t) (labels : Instr.label list) : touch =
  let d, callees = direct t ~spawns f labels in
  List.fold_left (fun acc c -> union acc (footprint t ~spawns c)) d callees

(** The cross-wave test: can successive waves of a task — the
    iterations of a loop, the invocations of a function — touch one
    address of a space whose accesses have [forms]?  They cannot when
    the accesses share one form whose leaves each either advance by a
    per-wave [step] (an induction's, {!Loops.inductions}) or are
    [invariant] in the task, and whose net stride Σ coeff·step is
    nonzero: wave k then touches [a + k·stride] and no other wave
    does.  An access with no form fails the test. *)
let distinct_waves ~(step : leaf -> int option) ~(invariant : leaf -> bool)
    (forms : form option list) : bool =
  match forms with
  | Some first :: rest ->
    List.for_all (fun a -> a = Some first) rest
    && List.for_all (fun (l, _) -> step l <> None || invariant l) first.coeffs
    && List.fold_left
         (fun acc (l, c) -> acc + (c * Option.value ~default:0 (step l)))
         0 first.coeffs
       <> 0
  | _ -> false
