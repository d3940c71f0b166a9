(** The flat word-addressed memory shared by every execution substrate
    (golden interpreter, cycle simulator, CPU and HLS models).

    Storage is struct-of-arrays in the {!Flat} encoding — a tag column
    plus int/float/object payload columns — so the cycle simulator's
    memory datapath moves words without boxing them.  The boxed
    [load]/[store] API is preserved for the interpreter and tests;
    [load] materializes through the intern table, so small integers
    and constants stay allocation-free there too. *)

open Types
module F = Flat

type t = {
  tags : int array;
  nums : int array;
  flts : float array;
  objs : value array;
  mutable loads : int;
  mutable stores : int;
}

let create (p : Program.t) : t =
  let size = max (Program.memory_words p) 1 in
  let m =
    { tags = Array.make size F.tint;
      nums = Array.make size 0;
      flts = Array.make size 0.0;
      objs = Array.make size F.no_obj;
      loads = 0; stores = 0 }
  in
  let set addr v =
    m.tags.(addr) <- F.tag_of v;
    m.nums.(addr) <- F.num_of v;
    m.flts.(addr) <- F.flt_of v;
    m.objs.(addr) <- F.obj_of v
  in
  List.iter
    (fun (g : Program.global) ->
      match g.ginit with
      | None ->
        (* Zero of the element type. *)
        let zt = match g.gelt with TFloat -> F.tfloat | _ -> F.tint in
        for i = 0 to g.gsize - 1 do
          m.tags.(g.gbase + i) <- zt
        done
      | Some init ->
        Array.iteri (fun i v -> if i < g.gsize then set (g.gbase + i) v) init)
    p.globals;
  m

let size (m : t) = Array.length m.tags

let in_bounds (m : t) addr = addr >= 0 && addr < Array.length m.tags

let load (m : t) (addr : int) : value =
  if not (in_bounds m addr) then
    invalid_arg (Fmt.str "Memory.load: address %d out of bounds" addr);
  m.loads <- m.loads + 1;
  F.materialize m.tags.(addr) m.nums.(addr) m.flts.(addr) m.objs.(addr)

let store (m : t) (addr : int) (v : value) : unit =
  if not (in_bounds m addr) then
    invalid_arg (Fmt.str "Memory.store: address %d out of bounds" addr);
  m.stores <- m.stores + 1;
  m.tags.(addr) <- F.tag_of v;
  m.nums.(addr) <- F.num_of v;
  m.flts.(addr) <- F.flt_of v;
  m.objs.(addr) <- F.obj_of v

(* ------------------------------------------------------------------ *)
(* Flat access (the simulator's zero-allocation datapath)              *)

(** Copy word [addr] into row [di] of the destination columns, without
    materializing.  Bounds and load accounting match {!load}. *)
let load_into (m : t) (addr : int) (dtags : int array) (dnums : int array)
    (dflts : float array) (dobjs : value array) (di : int) : unit =
  if not (in_bounds m addr) then
    invalid_arg (Fmt.str "Memory.load: address %d out of bounds" addr);
  m.loads <- m.loads + 1;
  dtags.(di) <- m.tags.(addr);
  dnums.(di) <- m.nums.(addr);
  dflts.(di) <- m.flts.(addr);
  dobjs.(di) <- m.objs.(addr)

(** Store row [si] of the source columns into word [addr]. *)
let store_from (m : t) (addr : int) (stags : int array) (snums : int array)
    (sflts : float array) (sobjs : value array) (si : int) : unit =
  if not (in_bounds m addr) then
    invalid_arg (Fmt.str "Memory.store: address %d out of bounds" addr);
  m.stores <- m.stores + 1;
  m.tags.(addr) <- stags.(si);
  m.nums.(addr) <- snums.(si);
  m.flts.(addr) <- sflts.(si);
  m.objs.(addr) <- sobjs.(si)

(* ------------------------------------------------------------------ *)

let load_float (m : t) addr =
  match load m addr with
  | VFloat f -> f
  | VInt i -> Int64.to_float i
  | v -> invalid_arg ("Memory.load_float: " ^ value_to_string v)

(** Load a [shape] tile whose row [r] starts at [addr + r*row_stride]. *)
let load_tile (m : t) ~(addr : int) ~(row_stride : int) (s : shape) :
    float array =
  let t = Array.make (shape_words s) 0.0 in
  for r = 0 to s.rows - 1 do
    for c = 0 to s.cols - 1 do
      t.((r * s.cols) + c) <- load_float m (addr + (r * row_stride) + c)
    done
  done;
  t

let store_tile (m : t) ~(addr : int) ~(row_stride : int) (s : shape)
    (t : float array) : unit =
  for r = 0 to s.rows - 1 do
    for c = 0 to s.cols - 1 do
      store m (addr + (r * row_stride) + c) (VFloat t.((r * s.cols) + c))
    done
  done

(** Snapshot of a named global's contents, for golden comparisons. *)
let dump_global (m : t) (p : Program.t) (name : string) : value array =
  let g = Program.find_global p name in
  Array.init g.gsize (fun i ->
      let a = g.gbase + i in
      F.materialize m.tags.(a) m.nums.(a) m.flts.(a) m.objs.(a))

(** The first word of [globals], in list then index order, where [got]
    differs from [golden] beyond {!Types.value_close}: the global, the
    index, the golden value and the value [got] holds. *)
let first_mismatch (p : Program.t) (globals : string list) ~(golden : t)
    (got : t) : (string * int * value * value) option =
  List.find_map
    (fun g ->
      let a = dump_global golden p g and b = dump_global got p g in
      let rec from i =
        if i = Array.length a then None
        else if value_close a.(i) b.(i) then from (i + 1)
        else Some (g, i, a.(i), b.(i))
      in
      from 0)
    globals
