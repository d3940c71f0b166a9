(** Timing cost model for μIR nodes: pipeline latency (cycles from
    consuming inputs to the result being visible to the consumer) and
    initiation interval (minimum cycles between successive firings).

    The baseline graph performs no scheduling: every connection is a
    full ready/valid handshake with its own pipeline register, so even
    a 1-gate operation costs a compute stage plus a handshake stage
    (latency 2).  This is exactly what makes the baseline loop ring
    the paper's five stages (Buffer→φ→i++→i==0→branch ≈ μ(1) +
    add(2) + steer(2)), and what the op-fusion pass removes by
    collapsing a chain into one stage group.

    [fu_raw_delay] is the one per-op combinational delay table: the
    op-fusion pass budgets a chain with it, and the synthesis model in
    [Muir_model] prices every LUT stage and fused stage group from it.

    The last section states how the simulation kernel runs a circuit
    — output-ring depth, wave-pipelined loops, dynamically-instanced
    tasks — once, for the kernel and for every analysis that models
    it. *)

module G = Graph
module I = Muir_ir.Instr

type t = { latency : int; ii : int }

let one = { latency = 1; ii = 1 }
let alu = { latency = 2; ii = 1 }

let fu_cost : G.fu_op -> t = function
  | Fibin (Add | Sub | And | Or | Xor | Shl | Lshr | Ashr) -> alu
  | Fibin Mul -> { latency = 4; ii = 1 }
  | Fibin (Sdiv | Srem) -> { latency = 13; ii = 12 }
  | Ffbin (Fadd | Fsub) -> { latency = 5; ii = 1 }
  | Ffbin Fmul -> { latency = 5; ii = 1 }
  | Ffbin Fdiv -> { latency = 13; ii = 12 }
  | Ficmp _ -> alu
  | Ffcmp _ -> { latency = 3; ii = 1 }
  | Ffunary (Fneg | Fabs) -> alu
  | Ffunary (Fexp | Fsqrt) -> { latency = 13; ii = 1 }
  | Fcast _ -> { latency = 3; ii = 1 }
  | Fselect | Fgep _ -> alu
  | Fident -> one

(** Tile ops: the baseline (shared FU) implementation serializes the
    scalar operations of the tile through one multiplier and one adder
    (Fig. 14 left); the dedicated reduction-tree unit installed by the
    tensor pass is fully pipelined (Fig. 14 right). *)
let tensor_cost (top : G.tensor_op) ~(dedicated : bool) : t =
  let open G in
  if dedicated then
    match top with
    | Tmul2 -> { latency = 5; ii = 1 }
    | Tadd2 -> { latency = 3; ii = 1 }
    | Trelu2 -> { latency = 2; ii = 1 }
  else
    match top with
    | Tmul2 -> { latency = 16; ii = 8 }  (* 8 muls + 4-add tree, shared FUs *)
    | Tadd2 -> { latency = 8; ii = 4 }
    | Trelu2 -> { latency = 5; ii = 4 }

(** Raw combinational delay of a scalar opcode, in "adder units"
    (a 32-bit carry chain = 1.0).  The op-fusion pass reads the
    fusable ops; the synthesis model reads every op that lowers to LUT
    logic (the fusable ops and casts).  Mul, div and FP ops lower to
    macros the model prices with its own delays, so neither consumer
    reads their entries. *)
let fu_raw_delay : G.fu_op -> float = function
  | Fibin (I.Add | I.Sub) | Fgep _ -> 1.0
  | Fibin (I.And | I.Or | I.Xor) -> 0.35
  | Fibin (I.Shl | I.Lshr | I.Ashr) -> 0.5
  | Ficmp _ -> 0.9
  | Fselect | Fident -> 0.4
  | Fcast _ -> 0.8
  | Fibin I.Mul -> 2.2
  | Fibin (I.Sdiv | I.Srem) -> 2.6
  | Ffbin _ | Ffcmp _ | Ffunary _ -> 1.8

(** Total raw delay of a fused chain, in adder units. *)
let chain_delay (ops : G.fu_op list) : float =
  List.fold_left (fun d op -> d +. fu_raw_delay op) 0.0 ops

let node_cost (k : G.node_kind) : t =
  match k with
  | Compute op -> fu_cost op
  | Fused _ | FusedSteer _ ->
    alu (* one stage group: a single handshake for the whole chain *)
  | Merge _ -> alu
  | MergeLoop -> one
  | Steer -> alu
  | Load _ | Store _ | Tload _ | Tstore _ -> one (* issue; memory adds more *)
  | Tcompute { top; dedicated } -> tensor_cost top ~dedicated
  | LiveIn _ | LiveOut _ -> one
  | CallChild _ | SpawnChild _ -> one
  | SyncWait -> one

(* ------------------------------------------------------------------ *)
(* Execution rules                                                     *)

(** Depth of every node's pipeline output ring: a node keeps firing
    until [pipe_slots] results await drain, so finite channel capacity
    backpressures this many firings late.  A power of two: the kernel
    indexes the ring with [land (pipe_slots - 1)]. *)
let pipe_slots = 4

(** Invocations of a leaf loop (no stores, calls, spawns or syncs)
    wave-pipeline: they enter the loop ring back to back and complete
    in order, the paper's in-order concurrent invocations.  Any other
    loop runs one invocation at a time. *)
let pipelined (t : G.task) : bool =
  (match t.tkind with G.Tloop _ -> true | G.Tfunc -> false)
  && List.for_all
       (fun (nd : G.node) ->
         match nd.kind with
         | G.Store _ | G.Tstore _ | G.CallChild _ | G.SpawnChild _
         | G.SyncWait -> false
         | _ -> true)
       t.nodes

(** Task sets of the call/spawn graph, indexed by task id.
    - [recursive]: on a call/spawn cycle.  Its invocation count and
      in-flight window are unbounded statically.
    - [on_demand]: recursive, or reachable from a recursive task, whose
      callers may hold unbounded concurrent invocations.  The kernel
      gives each invocation of such a task its own instance, and a
      caller never parks on its queue.  Every other task runs one
      static instance per tile. *)
type instancing = { recursive : bool array; on_demand : bool array }

let instancing (c : G.circuit) : instancing =
  let n = List.length c.tasks in
  let reach = Array.make_matrix n n false in
  List.iter
    (fun (t : G.task) ->
      List.iter (fun ch -> reach.(t.tid).(ch) <- true) t.children)
    c.tasks;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if reach.(i).(k) then
        for j = 0 to n - 1 do
          if reach.(k).(j) then reach.(i).(j) <- true
        done
    done
  done;
  let recursive = Array.init n (fun i -> reach.(i).(i)) in
  let on_demand = Array.copy recursive in
  Array.iteri
    (fun j r ->
      if r then
        Array.iteri (fun i x -> if x then on_demand.(i) <- true) reach.(j))
    recursive;
  { recursive; on_demand }
