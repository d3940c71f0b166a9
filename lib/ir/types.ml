(** Scalar and composite types of the compiler IR.

    The IR uses a word-oriented memory model: every scalar occupies one
    64-bit word of the flat address space, regardless of its declared
    width.  Declared widths still matter — the synthesis model sizes
    function units and wires from them — but the functional semantics
    are width-checked only at the boundaries (stores truncate, loads
    sign-extend), which keeps the interpreter and the cycle simulator
    simple without changing any timing-relevant behaviour. *)

type shape = { rows : int; cols : int }

let shape_words { rows; cols } = rows * cols

type ty =
  | TUnit
  | TBool
  | TInt of int  (** bit width: 32 or 64 *)
  | TFloat      (** single precision *)
  | TPtr        (** word address into the flat memory *)
  | TTensor of shape  (** a tile register of [rows*cols] floats *)

let i32 = TInt 32
let i64 = TInt 64

let equal_ty (a : ty) (b : ty) = a = b

let ty_bits = function
  | TUnit -> 0
  | TBool -> 1
  | TInt w -> w
  | TFloat -> 32
  | TPtr -> 64
  | TTensor s -> 32 * shape_words s

let pp_shape ppf { rows; cols } = Fmt.pf ppf "%dx%d" rows cols

let pp_ty ppf = function
  | TUnit -> Fmt.string ppf "void"
  | TBool -> Fmt.string ppf "bool"
  | TInt w -> Fmt.pf ppf "i%d" w
  | TFloat -> Fmt.string ppf "f32"
  | TPtr -> Fmt.string ppf "ptr"
  | TTensor s -> Fmt.pf ppf "tile<%a>" pp_shape s

(** Runtime values flowing through the interpreter and the cycle
    simulator.  [VPoison] marks the output of a predicated-off
    side-effecting node; it must never be consumed by a committed
    side effect. *)
type value =
  | VUnit
  | VBool of bool
  | VInt of int64
  | VFloat of float
  | VTensor of float array  (** row major, length = rows*cols *)
  | VPoison

let vint i = VInt (Int64.of_int i)

let pp_value ppf = function
  | VUnit -> Fmt.string ppf "()"
  | VBool b -> Fmt.bool ppf b
  | VInt i -> Fmt.pf ppf "%Ld" i
  | VFloat f -> Fmt.pf ppf "%g" f
  | VTensor a ->
    Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any ";") float) a
  | VPoison -> Fmt.string ppf "poison"

let value_to_string v = Fmt.str "%a" pp_value v

(** Structural equality with a relative tolerance of 1e-5 for floats,
    used by tests and the golden-model comparison. *)
let value_close a b =
  let eps = 1e-5 in
  let feq x y =
    let d = Float.abs (x -. y) in
    d <= eps *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  in
  match a, b with
  | VUnit, VUnit -> true
  | VBool x, VBool y -> x = y
  | VInt x, VInt y -> Int64.equal x y
  | VFloat x, VFloat y -> feq x y
  | VTensor x, VTensor y ->
    Array.length x = Array.length y
    && (let ok = ref true in
        Array.iteri (fun i xi -> if not (feq xi y.(i)) then ok := false) x;
        !ok)
  | VPoison, VPoison -> true
  | _ -> false

let is_poison = function VPoison -> true | _ -> false

(** Truth of a value used as a branch condition. *)
let truth = function
  | VBool b -> b
  | VInt i -> not (Int64.equal i 0L)
  | _ -> invalid_arg "Types.truth: not a condition value"

(** Truth of a control token: a predicate, a steer selector or a mu
    control input.  Lenient where {!truth} raises: a value that is
    neither a bool nor an int (a poisoned predicate, say) is false. *)
let truthy = function
  | VBool b -> b
  | VInt i -> not (Int64.equal i 0L)
  | _ -> false

(* The conversions below are lenient about the scalar kind: a
   speculatively executed (predicated-off) operation may read a word
   that was last written with a different element type — hardware
   reinterprets the bits; here we convert numerically.  Such values
   only flow into discarded merge arms. *)
let as_int = function
  | VInt i -> i
  | VBool true -> 1L
  | VBool false -> 0L
  | VFloat f -> Int64.of_float f
  | v -> invalid_arg ("Types.as_int: " ^ value_to_string v)

let as_float = function
  | VFloat f -> f
  | VInt i -> Int64.to_float i
  | VBool b -> (if b then 1.0 else 0.0)
  | v -> invalid_arg ("Types.as_float: " ^ value_to_string v)

let as_tensor = function
  | VTensor a -> a
  | v -> invalid_arg ("Types.as_tensor: " ^ value_to_string v)
