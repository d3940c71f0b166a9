(** Functional evaluation of μIR node opcodes on tokens.  Shares the
    arithmetic core with the golden interpreter via
    {!Muir_ir.Eval}, so the simulator cannot drift semantically.

    One ALU surface: the flat scratch-column ALU ({!sc},
    {!compute_sc}, {!fused_sc}, {!merge_sc}) the kernel's
    zero-allocation fire path runs on.  It executes on native ints and
    unboxed floats behind range guards, and falls back to its slow
    path — materialize the operands, then the boxed {!compute} —
    whenever a native result could diverge from the [int64] semantics,
    so the fast and slow paths are bit-identical by construction.
    Tensor nodes run on the boxed {!tensor}. *)

module G = Muir_core.Graph
module T = Muir_ir.Types
module E = Muir_ir.Eval
module I = Muir_ir.Instr
module F = Muir_ir.Flat

type token = T.value

let poisoned args = List.exists T.is_poison args

(** Arity of a scalar opcode (operands actually consumed; any further
    inputs are ordering/trigger tokens whose values are ignored). *)
let fu_arity : G.fu_op -> int = function
  | Fibin _ | Ffbin _ | Ficmp _ | Ffcmp _ | Fgep _ -> 2
  | Ffunary _ | Fcast _ | Fident -> 1
  | Fselect -> 3

let rec take k = function
  | [] -> []
  | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest

let compute (op : G.fu_op) (args : token list) : token =
  let args = take (fu_arity op) args in
  if poisoned args then T.VPoison
  else
    match op, args with
    | G.Fibin o, [ a; b ] -> T.VInt (E.ibin o (T.as_int a) (T.as_int b))
    | G.Ffbin o, [ a; b ] -> T.VFloat (E.fbin o (T.as_float a) (T.as_float b))
    | G.Ficmp o, [ a; b ] -> T.VBool (E.icmp o (T.as_int a) (T.as_int b))
    | G.Ffcmp o, [ a; b ] ->
      T.VBool (E.fcmp o (T.as_float a) (T.as_float b))
    | G.Ffunary o, [ a ] -> T.VFloat (E.funary o (T.as_float a))
    | G.Fcast o, [ a ] -> E.cast o a
    | G.Fselect, [ c; a; b ] -> if T.truth c then a else b
    | G.Fgep s, [ base; idx ] ->
      T.VInt (Int64.add (T.as_int base) (Int64.mul (T.as_int idx)
                (Int64.of_int s)))
    | G.Fident, [ a ] -> a
    | _ -> invalid_arg "Exec.compute: arity mismatch"

let tensor (top : G.tensor_op) (args : token list) : token =
  if poisoned args then T.VPoison
  else
    match top, args with
    | G.Tmul2, [ T.VTensor a; T.VTensor b ] ->
      let n = int_of_float (Float.sqrt (float_of_int (Array.length a))) in
      T.VTensor (E.tensor_mul { rows = n; cols = n } a b)
    | G.Tadd2, [ T.VTensor a; T.VTensor b ] -> T.VTensor (E.tensor_add a b)
    | G.Trelu2, [ T.VTensor a ] -> T.VTensor (E.tensor_relu a)
    | _ -> invalid_arg "Exec.tensor: bad operands"

(* ------------------------------------------------------------------ *)
(* Flat scratch-column ALU                                             *)

(** The kernel's operand scratchpad: one row per input port in the
    {!Muir_ir.Flat} encoding, plus a result row.  The result float
    lives in a one-element float array (a mutable float field of a
    mixed record would box on every store). *)
type sc = {
  stags : int array;
  snums : int array;
  sflts : float array;
  sobjs : token array;
  mutable rtag : int;
  mutable rnum : int;
  rflt : float array;   (* length 1 *)
  mutable robj : token;
}

let make_sc ~(slots : int) : sc =
  let n = max slots 8 in
  { stags = Array.make n F.tabsent; snums = Array.make n 0;
    sflts = Array.make n 0.0; sobjs = Array.make n F.no_obj;
    rtag = F.tabsent; rnum = 0; rflt = [| 0.0 |]; robj = F.no_obj }

(* The result object is almost always [F.no_obj]: skip a store of the
   value already there, which would still pay the write barrier. *)
let[@inline] set_robj (sc : sc) (v : token) : unit =
  if sc.robj != v then sc.robj <- v

(* Raised (preallocated, no payload) when a fast path cannot guarantee
   bit-identity with the boxed semantics. *)
exception Slow

let rec any_poison (tags : int array) (off : int) (k : int) : bool =
  k > 0 && (tags.(off) = F.tpoison || any_poison tags (off + 1) (k - 1))

(* Native-int guards: operands within +/-2^30 keep every ibin result
   (products included) inside the 63-bit native range AND equal to the
   64-bit result, so native arithmetic is exact. *)
let small (x : int) = x >= -0x40000000 && x < 0x40000000
let int_like (t : int) = t = F.tint || t = F.ttrue || t = F.tfalse

let ival (sc : sc) (i : int) : int =
  let t = sc.stags.(i) in
  if t = F.tint then sc.snums.(i) else if t = F.ttrue then 1 else 0

(** Normalize arg [i] to a float in [sflts.(i)] ([as_float] semantics
    for the cases a fast path may handle); raises {!Slow} otherwise. *)
let norm_float (sc : sc) (i : int) : unit =
  let t = sc.stags.(i) in
  if t = F.tfloat then ()
  else if t = F.tint then sc.sflts.(i) <- float_of_int sc.snums.(i)
  else if t = F.ttrue then sc.sflts.(i) <- 1.0
  else if t = F.tfalse then sc.sflts.(i) <- 0.0
  else if t = F.tobj then
    match sc.sobjs.(i) with
    | T.VInt v -> sc.sflts.(i) <- Int64.to_float v
    | _ -> raise Slow
  else raise Slow

let set_poison (sc : sc) : unit =
  sc.rtag <- F.tpoison;
  set_robj sc F.no_obj

let set_result (sc : sc) (v : token) : unit =
  sc.rtag <- F.tag_of v;
  sc.rnum <- F.num_of v;
  sc.rflt.(0) <- F.flt_of v;
  set_robj sc (F.obj_of v)

let copy_to_result (sc : sc) (j : int) : unit =
  sc.rtag <- sc.stags.(j);
  sc.rnum <- sc.snums.(j);
  sc.rflt.(0) <- sc.sflts.(j);
  set_robj sc sc.sobjs.(j)

(** Materialize row [i] back to a boxed token (slow paths only). *)
let slot_value (sc : sc) (i : int) : token =
  F.materialize sc.stags.(i) sc.snums.(i) sc.sflts.(i) sc.sobjs.(i)

let rec slot_values (sc : sc) (off : int) (k : int) : token list =
  if k = 0 then [] else slot_value sc off :: slot_values sc (off + 1) (k - 1)

let slow_compute (sc : sc) (op : G.fu_op) (off : int) (argc : int) : unit =
  set_result sc (compute op (slot_values sc off argc))

(** Evaluate [op] over rows [off .. off+argc-1], result into the [r]
    fields.  Bit-identical to [compute] on the materialized rows. *)
let compute_sc (sc : sc) (op : G.fu_op) (off : int) (argc : int) : unit =
  let k = fu_arity op in
  if argc < k then slow_compute sc op off argc
  else if any_poison sc.stags off k then set_poison sc
  else
    try
      match op with
      | G.Fibin o ->
        if not (int_like sc.stags.(off) && int_like sc.stags.(off + 1)) then
          raise Slow;
        let a = ival sc off and b = ival sc (off + 1) in
        if not (small a && small b) then raise Slow;
        let r =
          match o with
          | I.Add -> a + b
          | I.Sub -> a - b
          | I.Mul -> a * b
          | I.Sdiv -> if b = 0 then 0 else a / b
          | I.Srem -> if b = 0 then 0 else a mod b
          | I.And -> a land b
          | I.Or -> a lor b
          | I.Xor -> a lxor b
          | I.Shl ->
            let s = b land 63 in
            if s <= 32 then a lsl s else raise Slow
          | I.Lshr -> if a >= 0 then a lsr (b land 63) else raise Slow
          | I.Ashr -> a asr (b land 63)
        in
        sc.rtag <- F.tint;
        sc.rnum <- r;
        set_robj sc F.no_obj
      | G.Ficmp o ->
        if not (int_like sc.stags.(off) && int_like sc.stags.(off + 1)) then
          raise Slow;
        let a = ival sc off and b = ival sc (off + 1) in
        let r =
          match o with
          | I.Eq -> a = b
          | I.Ne -> a <> b
          | I.Slt -> a < b
          | I.Sle -> a <= b
          | I.Sgt -> a > b
          | I.Sge -> a >= b
        in
        sc.rtag <- (if r then F.ttrue else F.tfalse);
        set_robj sc F.no_obj
      | G.Ffbin o ->
        norm_float sc off;
        norm_float sc (off + 1);
        let a = sc.sflts.(off) and b = sc.sflts.(off + 1) in
        sc.rflt.(0) <-
          (match o with
          | I.Fadd -> a +. b
          | I.Fsub -> a -. b
          | I.Fmul -> a *. b
          | I.Fdiv -> a /. b);
        sc.rtag <- F.tfloat;
        set_robj sc F.no_obj
      | G.Ffcmp o ->
        norm_float sc off;
        norm_float sc (off + 1);
        let a = sc.sflts.(off) and b = sc.sflts.(off + 1) in
        let r =
          match o with
          | I.Foeq -> a = b
          | I.Fone -> a <> b
          | I.Folt -> a < b
          | I.Fole -> a <= b
          | I.Fogt -> a > b
          | I.Foge -> a >= b
        in
        sc.rtag <- (if r then F.ttrue else F.tfalse);
        set_robj sc F.no_obj
      | G.Ffunary o ->
        norm_float sc off;
        let a = sc.sflts.(off) in
        sc.rflt.(0) <-
          (match o with
          | I.Fneg -> -.a
          | I.Fexp -> Float.exp a
          | I.Fsqrt -> Float.sqrt a
          | I.Fabs -> Float.abs a);
        sc.rtag <- F.tfloat;
        set_robj sc F.no_obj
      | G.Fcast c -> (
        let t = sc.stags.(off) in
        match c with
        | I.Sitofp ->
          if not (int_like t) then raise Slow;
          sc.rflt.(0) <- float_of_int (ival sc off);
          sc.rtag <- F.tfloat;
          set_robj sc F.no_obj
        | I.Fptosi ->
          if t <> F.tfloat then raise Slow;
          let f = sc.sflts.(off) in
          (* In +/-4e18 the native truncation equals Int64.of_float;
             NaN fails both comparisons and takes the slow path. *)
          if not (f > -4.0e18 && f < 4.0e18) then raise Slow;
          sc.rnum <- int_of_float f;
          sc.rtag <- F.tint;
          set_robj sc F.no_obj
        | I.Zext _ ->
          if not (int_like t) then raise Slow;
          sc.rnum <- ival sc off;
          sc.rtag <- F.tint;
          set_robj sc F.no_obj
        | I.Trunc w ->
          if t = F.ttrue || t = F.tfalse then copy_to_result sc off
          else if t = F.tint && w >= 1 && w <= 62 then begin
            sc.rnum <- sc.snums.(off) land ((1 lsl w) - 1);
            sc.rtag <- F.tint;
            set_robj sc F.no_obj
          end
          else raise Slow)
      | G.Fselect ->
        let t = sc.stags.(off) in
        if t = F.ttrue then copy_to_result sc (off + 1)
        else if t = F.tfalse then copy_to_result sc (off + 2)
        else if t = F.tint then
          copy_to_result sc (if sc.snums.(off) <> 0 then off + 1 else off + 2)
        else raise Slow
      | G.Fgep s ->
        if not (int_like sc.stags.(off) && int_like sc.stags.(off + 1)) then
          raise Slow;
        let base = ival sc off and idx = ival sc (off + 1) in
        if not (small base && small idx && small s) then raise Slow;
        sc.rnum <- base + (idx * s);
        sc.rtag <- F.tint;
        set_robj sc F.no_obj
      | G.Fident -> copy_to_result sc off
    with Slow -> slow_compute sc op off k

(* Top-level recursion (not a local closure, which would allocate). *)
let rec fused_go (sc : sc) (ops : G.fu_op list) (argc : int) (cur : int) :
    unit =
  match ops with
  | [] -> ()
  | op :: rest ->
    let extra = fu_arity op - 1 in
    let avail = Int.max 0 (Int.min extra (argc - cur)) in
    let ch = argc in
    sc.stags.(ch) <- sc.rtag;
    sc.snums.(ch) <- sc.rnum;
    sc.sflts.(ch) <- sc.rflt.(0);
    if sc.sobjs.(ch) != sc.robj then sc.sobjs.(ch) <- sc.robj;
    for j = 0 to avail - 1 do
      let s = cur + j in
      sc.stags.(ch + 1 + j) <- sc.stags.(s);
      sc.snums.(ch + 1 + j) <- sc.snums.(s);
      sc.sflts.(ch + 1 + j) <- sc.sflts.(s);
      if sc.sobjs.(ch + 1 + j) != sc.sobjs.(s) then
        sc.sobjs.(ch + 1 + j) <- sc.sobjs.(s)
    done;
    compute_sc sc op ch (1 + avail);
    fused_go sc rest argc (cur + extra)

(** Fused chain over rows [0 .. argc-1]: the first opcode consumes its
    operands from row 0 on; each later opcode consumes the running
    result as its first operand plus the next rows.  Rows [argc ..]
    are the chain scratch (the scratchpad is sized for it). *)
let fused_sc (sc : sc) (ops : G.fu_op list) (argc : int) : unit =
  match ops with
  | [] -> invalid_arg "Exec.fused_sc: empty chain"
  | first :: rest ->
    compute_sc sc first 0 argc;
    fused_go sc rest argc (fu_arity first)

let rec merge_find (sc : sc) (k : int) (argc : int) (i : int) : unit =
  if i >= k then set_poison sc
  else
    let pick =
      let t = sc.stags.(i) in
      if t = F.ttrue then true
      else if t = F.tint then sc.snums.(i) <> 0
      else if t = F.tobj then
        match sc.sobjs.(i) with
        | T.VInt v -> not (Int64.equal v 0L)
        | _ -> false
      else false
    in
    if pick then
      if k + i < argc then copy_to_result sc (k + i)
      else invalid_arg "index out of bounds"
    else merge_find sc k argc (i + 1)

(** Merge over rows [0 .. argc-1] ([k] predicates then [k] values):
    the value whose predicate is true, else poison. *)
let merge_sc (sc : sc) (k : int) (argc : int) : unit =
  merge_find sc k argc 0

(* ------------------------------------------------------------------ *)
(* Flat control-token helpers                                          *)

(** {!Muir_ir.Types.truthy} on a flat-encoded token. *)
let truthy_flat (tag : int) (num : int) (obj : token) : bool =
  if tag = F.ttrue then true
  else if tag = F.tint then num <> 0
  else if tag = F.tobj then
    match obj with T.VInt i -> not (Int64.equal i 0L) | _ -> false
  else false

(** Address/stride tokens as machine integers (poison maps to 0; the
    predicate gates such accesses off before they reach memory). *)
let to_int_flat (tag : int) (num : int) (obj : token) : int =
  if tag = F.tint then num
  else if tag = F.ttrue then 1
  else if tag = F.tobj then
    match obj with T.VInt i -> Int64.to_int i | _ -> 0
  else 0
