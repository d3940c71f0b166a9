(** Instructions of the SSA compiler IR.

    The IR deliberately mirrors the LLVM subset the μIR paper's
    front-end consumes: three-address scalar ops, phis, loads/stores
    through word addresses, calls, TAPIR-style [spawn]/[sync], and the
    tensor-tile intrinsics used by the [T]-suffixed workloads. *)

open Types

type reg = int

type label = int

type operand =
  | Reg of reg
  | CBool of bool
  | CInt of int64
  | CFloat of float
  | GlobalAddr of string  (** word address of a global array's base *)

let op_reg = function Reg r -> Some r | _ -> None

type ibin = Add | Sub | Mul | Sdiv | Srem | And | Or | Xor | Shl | Lshr | Ashr
type fbin = Fadd | Fsub | Fmul | Fdiv
type icmp = Eq | Ne | Slt | Sle | Sgt | Sge
type fcmp = Foeq | Fone | Folt | Fole | Fogt | Foge
type funary = Fneg | Fexp | Fsqrt | Fabs
type cast = Sitofp | Fptosi | Zext of int | Trunc of int

type tbin = Tmul  (** tile matrix multiply *) | Tadd  (** elementwise add *)
type tunary = Trelu

type kind =
  | Bin of ibin * operand * operand
  | Fbin of fbin * operand * operand
  | Icmp of icmp * operand * operand
  | Fcmp of fcmp * operand * operand
  | Funary of funary * operand
  | Cast of cast * operand
  | Select of operand * operand * operand
  | Phi of (label * operand) list
  | Gep of { base : operand; index : operand; scale : int }
      (** word address [base + index*scale] *)
  | Load of { addr : operand }
  | Store of { addr : operand; value : operand }
  | Call of { callee : string; args : operand list }
  | Spawn of { callee : string; args : operand list }
      (** fire a concurrent child; the result register becomes valid
          only after the next [Sync] *)
  | Sync
  | Tload of { addr : operand; row_stride : operand; shape : shape }
  | Tstore of { addr : operand; row_stride : operand; value : operand;
                shape : shape }
  | Tbin of tbin * operand * operand
  | Tunary of tunary * operand

type t = {
  id : reg;      (** result register; also the instruction's identity *)
  ty : ty;       (** result type, [TUnit] for void instructions *)
  kind : kind;
}

type terminator =
  | Br of label
  | CondBr of operand * label * label  (** cond, then-target, else-target *)
  | Ret of operand option

(** Operands read by an instruction, in positional order. *)
let operands (i : t) : operand list =
  match i.kind with
  | Bin (_, a, b) | Fbin (_, a, b) | Icmp (_, a, b) | Fcmp (_, a, b)
  | Tbin (_, a, b) -> [ a; b ]
  | Funary (_, a) | Cast (_, a) | Tunary (_, a) -> [ a ]
  | Select (c, a, b) -> [ c; a; b ]
  | Phi ins -> List.map snd ins
  | Gep { base; index; _ } -> [ base; index ]
  | Load { addr } -> [ addr ]
  | Store { addr; value } -> [ addr; value ]
  | Call { args; _ } | Spawn { args; _ } -> args
  | Sync -> []
  | Tload { addr; row_stride; _ } -> [ addr; row_stride ]
  | Tstore { addr; row_stride; value; _ } -> [ addr; row_stride; value ]

let used_regs i = List.filter_map op_reg (operands i)

(** [i] with [f] applied to each of its {!operands}.  The result
    register, type, opcode, callee, phi labels, gep scale and tile
    shape are kept.  This is the one operand rewrite: constant folding
    and the unroller substitute through it. *)
let map_operands (f : operand -> operand) (i : t) : t =
  let kind =
    match i.kind with
    | Bin (o, a, b) -> Bin (o, f a, f b)
    | Fbin (o, a, b) -> Fbin (o, f a, f b)
    | Icmp (o, a, b) -> Icmp (o, f a, f b)
    | Fcmp (o, a, b) -> Fcmp (o, f a, f b)
    | Tbin (o, a, b) -> Tbin (o, f a, f b)
    | Funary (o, a) -> Funary (o, f a)
    | Cast (c, a) -> Cast (c, f a)
    | Tunary (o, a) -> Tunary (o, f a)
    | Select (c, a, b) -> Select (f c, f a, f b)
    | Phi ins -> Phi (List.map (fun (l, o) -> (l, f o)) ins)
    | Gep g -> Gep { g with base = f g.base; index = f g.index }
    | Load { addr } -> Load { addr = f addr }
    | Store { addr; value } -> Store { addr = f addr; value = f value }
    | Call c -> Call { c with args = List.map f c.args }
    | Spawn s -> Spawn { s with args = List.map f s.args }
    | Sync -> Sync
    | Tload t -> Tload { t with addr = f t.addr; row_stride = f t.row_stride }
    | Tstore t ->
      Tstore
        { t with addr = f t.addr; row_stride = f t.row_stride;
                 value = f t.value }
  in
  { i with kind }

(** [op], or what [tbl] maps it to when it is a register [tbl] holds. *)
let subst (tbl : (reg, operand) Hashtbl.t) (op : operand) : operand =
  match op with
  | Reg r -> Option.value (Hashtbl.find_opt tbl r) ~default:op
  | _ -> op

(** The address a memory instruction accesses and whether it writes
    there; [None] for every other kind.  Tile accesses start at the
    address and sweep a rectangle from it. *)
let mem_access (i : t) : (operand * bool) option =
  match i.kind with
  | Load { addr } | Tload { addr; _ } -> Some (addr, false)
  | Store { addr; _ } | Tstore { addr; _ } -> Some (addr, true)
  | _ -> None

let has_side_effect (i : t) =
  match i.kind with
  | Store _ | Call _ | Spawn _ | Sync | Tstore _ -> true
  | Load _ | Tload _ -> false (* reordered only by the may-alias rules *)
  | _ -> false

let is_memory (i : t) = Option.is_some (mem_access i)

(** Operands read by a terminator. *)
let term_operands : terminator -> operand list = function
  | Br _ -> []
  | CondBr (c, _, _) -> [ c ]
  | Ret v -> Option.to_list v

let term_used_regs t = List.filter_map op_reg (term_operands t)

(** [t] with [f] applied to each of its {!term_operands}; the targets
    are kept. *)
let map_term (f : operand -> operand) : terminator -> terminator = function
  | Br _ as t -> t
  | CondBr (c, t, e) -> CondBr (f c, t, e)
  | Ret v -> Ret (Option.map f v)

let ibin_to_string = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Sdiv -> "sdiv"
  | Srem -> "srem" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Lshr -> "lshr" | Ashr -> "ashr"

let fbin_to_string = function
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

let icmp_to_string = function
  | Eq -> "eq" | Ne -> "ne" | Slt -> "slt" | Sle -> "sle"
  | Sgt -> "sgt" | Sge -> "sge"

let fcmp_to_string = function
  | Foeq -> "oeq" | Fone -> "one" | Folt -> "olt" | Fole -> "ole"
  | Fogt -> "ogt" | Foge -> "oge"

let funary_to_string = function
  | Fneg -> "fneg" | Fexp -> "fexp" | Fsqrt -> "fsqrt" | Fabs -> "fabs"

let cast_to_string = function
  | Sitofp -> "sitofp" | Fptosi -> "fptosi"
  | Zext w -> Fmt.str "zext.i%d" w
  | Trunc w -> Fmt.str "trunc.i%d" w

let tbin_to_string = function Tmul -> "tmul" | Tadd -> "tadd"
let tunary_to_string = function Trelu -> "trelu"

let pp_operand ppf = function
  | Reg r -> Fmt.pf ppf "%%%d" r
  | CBool b -> Fmt.bool ppf b
  | CInt i -> Fmt.pf ppf "%Ld" i
  | CFloat f -> Fmt.pf ppf "%h" f
  | GlobalAddr g -> Fmt.pf ppf "@%s" g

let pp_kind ppf (k : kind) =
  let op = pp_operand in
  match k with
  | Bin (b, x, y) -> Fmt.pf ppf "%s %a, %a" (ibin_to_string b) op x op y
  | Fbin (b, x, y) -> Fmt.pf ppf "%s %a, %a" (fbin_to_string b) op x op y
  | Icmp (c, x, y) -> Fmt.pf ppf "icmp %s %a, %a" (icmp_to_string c) op x op y
  | Fcmp (c, x, y) -> Fmt.pf ppf "fcmp %s %a, %a" (fcmp_to_string c) op x op y
  | Funary (u, x) -> Fmt.pf ppf "%s %a" (funary_to_string u) op x
  | Cast (c, x) -> Fmt.pf ppf "%s %a" (cast_to_string c) op x
  | Select (c, a, b) -> Fmt.pf ppf "select %a, %a, %a" op c op a op b
  | Phi ins ->
    Fmt.pf ppf "phi %a"
      Fmt.(list ~sep:(any ", ")
             (fun ppf (l, o) -> pf ppf "[bb%d: %a]" l pp_operand o))
      ins
  | Gep { base; index; scale } ->
    Fmt.pf ppf "gep %a + %a*%d" op base op index scale
  | Load { addr } -> Fmt.pf ppf "load %a" op addr
  | Store { addr; value } -> Fmt.pf ppf "store %a, %a" op value op addr
  | Call { callee; args } ->
    Fmt.pf ppf "call @%s(%a)" callee Fmt.(list ~sep:comma pp_operand) args
  | Spawn { callee; args } ->
    Fmt.pf ppf "spawn @%s(%a)" callee Fmt.(list ~sep:comma pp_operand) args
  | Sync -> Fmt.string ppf "sync"
  | Tload { addr; row_stride; shape } ->
    Fmt.pf ppf "tload<%a> %a stride %a" pp_shape shape op addr op row_stride
  | Tstore { addr; row_stride; value; shape } ->
    Fmt.pf ppf "tstore<%a> %a, %a stride %a" pp_shape shape op value op addr
      op row_stride
  | Tbin (b, x, y) -> Fmt.pf ppf "%s %a, %a" (tbin_to_string b) op x op y
  | Tunary (u, x) -> Fmt.pf ppf "%s %a" (tunary_to_string u) op x

let pp ppf (i : t) =
  if equal_ty i.ty TUnit then Fmt.pf ppf "%a" pp_kind i.kind
  else Fmt.pf ppf "%%%d:%a = %a" i.id pp_ty i.ty pp_kind i.kind

let pp_terminator ppf = function
  | Br l -> Fmt.pf ppf "br bb%d" l
  | CondBr (c, t, f) -> Fmt.pf ppf "br %a, bb%d, bb%d" pp_operand c t f
  | Ret None -> Fmt.string ppf "ret"
  | Ret (Some v) -> Fmt.pf ppf "ret %a" pp_operand v
