(** The μIR graph: a hierarchical, latency-agnostic structural
    description of an accelerator.

    A {!circuit} is a set of {!task}s (asynchronous execution blocks
    connected parent→child, as in §3.2 of the paper), a set of memory
    {!structure}s (scratchpads/caches, §3.4), and a mapping from
    program address spaces to structures.  Each task's internals are a
    pipelined dataflow of {!node}s connected by latency-insensitive
    {!edge}s (§3.3): every edge is a ready/valid channel; a node fires
    when every wired input port holds a token and emits on its output
    ports.  Timing of individual components has no impact on
    functional correctness ("patience"), which is what lets μopt
    passes rewrite the graph freely.

    Each node kind's ports have fixed roles, named once under "Port
    roles" below; the builder, the kernel, the analyses and the passes
    read them from there. *)

module T = Muir_ir.Types
module I = Muir_ir.Instr

type node_id = int
type task_id = int
type struct_id = int

(** Address-space id; space 0 is the global DRAM-backed space, spaces
    [>= 1] correspond to program globals (allocation sites). *)
type space_id = int

(** Scalar function-unit opcodes.  [Fident] is the polymorphic
    pass-through used for wave tokens and fused identities. *)
type fu_op =
  | Fibin of I.ibin
  | Ffbin of I.fbin
  | Ficmp of I.icmp
  | Ffcmp of I.fcmp
  | Ffunary of I.funary
  | Fcast of I.cast
  | Fselect
  | Fgep of int  (** scale; computes base + index*scale *)
  | Fident

type tensor_op = Tmul2 | Tadd2 | Trelu2

(** What a node is.  Arities:
    - [Compute]: wired/imm inputs per opcode, one output.
    - [Fused]: a straight chain of fu_ops applied in one stage group
      (result of the op-fusion pass); inputs feed the first op's
      non-chained operands in order.
    - [Merge k]: 2k inputs — ports [0..k-1] predicates, [k..2k-1]
      values; emits the value whose predicate is true.
    - [MergeLoop]: 3 inputs — [ctl; init; back]; consumes [ctl], then
      consumes and re-emits from the selected data input (false→init,
      true→back).  The ctl back edge must carry one initial [false].
    - [Steer]: 2 inputs — [pred; data]; output port 0 fires when the
      predicate is true, port 1 when false.
    - [Load]: inputs [pred; addr] (+ trailing order tokens), outputs
      [data; done].  [Store]: inputs [pred; addr; value] (+ order),
      output [done].  Tensor variants move whole tiles through the
      databox (§3.4).
    - [Tcompute]: tile inputs, tile output (§6.3 higher-order op).
    - [LiveIn i]: no inputs, emits live-in [i] once per invocation.
    - [LiveOut i]: 1 input, captures live-out [i].
    - [CallChild t]: inputs [pred; args..]; outputs = child live-outs
      (request-response, used for nested loops and calls, §3.5).
    - [SpawnChild t]: inputs [pred; args..]; output 0 = child's return
      value, delivered when the child completes (valid after sync).
    - [SyncWait]: input [trigger]; output [done] once every task
      spawned under this invocation's sync context has completed. *)
type node_kind =
  | Compute of fu_op
  | Fused of fu_op list
  | FusedSteer of fu_op list
      (** a fused chain whose result is steered in the same stage:
          inputs [pred; chain inputs..]; outputs like [Steer].  The
          op-fusion pass uses this to re-time loop rings (the paper's
          Buffer→φ→i++→i==0→branch example collapses this way). *)
  | Merge of int
  | MergeLoop
  | Steer
  | Load of { space : space_id }
  | Store of { space : space_id }
  | Tload of { space : space_id; shape : T.shape }
  | Tstore of { space : space_id; shape : T.shape }
  | Tcompute of { top : tensor_op; dedicated : bool }
      (** [dedicated = false] (baseline) time-multiplexes the tile
          operation over one scalar multiplier and one adder;
          [dedicated = true] is the single-issue reduction-tree unit
          of Fig. 14, installed by the tensor higher-order-ops pass *)
  | LiveIn of int
  | LiveOut of int
  | CallChild of task_id
  | SpawnChild of task_id
  | SyncWait

(** An input port: wired to an edge, or a compile-time immediate. *)
type slot = Swire | Simm of T.value

type node = {
  nid : node_id;
  mutable kind : node_kind;
  mutable ins : slot array;
  mutable nty : T.ty;      (** type of output port 0's tokens *)
  mutable label : string;  (** provenance, for printing and Table 4 *)
}

(** A latency-insensitive channel between two ports: one cycle and one
    register stage.  Op fusion shortens a chain by collapsing it into
    one [Fused] node, not by making its edges combinational. *)
type edge = {
  eid : int;
  mutable src : node_id * int;
  mutable dst : node_id * int;
  mutable capacity : int;      (** token slots; >= 1 *)
  mutable initial : T.value list;  (** initial tokens (loop ctl primes) *)
}

type task_kind = Tfunc | Tloop of { parallel : bool }

type task = {
  tid : task_id;
  tname : string;
  tkind : task_kind;
  mutable nodes : node list;
  mutable edges : edge list;
  mutable next_nid : int;
  mutable next_eid : int;
  arg_tys : T.ty list;  (** live-in tuple; index 0 is the control token *)
  res_tys : T.ty list;  (** live-out tuple; index 0 is the done token *)
  mutable tiles : int;          (** execution tiling factor (μopt pass 2) *)
  mutable queue_depth : int;    (** task queue entries (μopt pass 1) *)
  mutable children : task_id list;
}

(** Hardware memory structures (§3.4).  All sizes in words. *)
type structure =
  | Scratchpad of {
      mutable banks : int;
      mutable ports_per_bank : int;
      mutable latency : int;
      mutable width_words : int;  (** words returned per access *)
      mutable wb_buffer : bool;
          (** stores acknowledge immediately from a write-back buffer
              (the Pass-3 alternative the paper mentions) *)
    }
  | Cache of {
      mutable banks : int;
      mutable line_words : int;
      mutable size_words : int;
      mutable ways : int;
      mutable hit_latency : int;
      mutable miss_latency : int;  (** DRAM round trip *)
    }

type struct_inst = {
  sid : struct_id;
  sname : string;
  mutable shape : structure;
}

type circuit = {
  cname : string;
  mutable tasks : task list;
  root : task_id;
  mutable structures : struct_inst list;
  mutable space_map : (space_id * struct_id) list;
  mutable junction_width : (task_id * int) list;
      (** memory requests grantable per cycle per task tile;
          default 1 when absent (raised by the banking passes) *)
  prog : Muir_ir.Program.t;  (** the behaviour this circuit implements *)
}

(* ------------------------------------------------------------------ *)
(* Constructors and accessors                                          *)

let in_arity (k : node_kind) ~(call_args : int) =
  match k with
  | Compute (Fibin _ | Ffbin _ | Ficmp _ | Ffcmp _ | Fgep _) -> 2
  | Compute (Ffunary _ | Fcast _ | Fident) -> 1
  | Compute Fselect -> 3
  | Fused _ | FusedSteer _ -> -1 (* variable; fixed at creation *)
  | Merge k -> 2 * k
  | MergeLoop -> 3
  | Steer -> 2
  | Load _ -> 2
  | Store _ -> 3
  | Tload _ -> 3 (* pred; addr; row_stride *)
  | Tstore _ -> 4 (* pred; addr; row_stride; value *)
  | Tcompute { top = Tmul2 | Tadd2; _ } -> 2
  | Tcompute { top = Trelu2; _ } -> 1
  | LiveIn _ -> 0
  | LiveOut _ -> 1
  | CallChild _ | SpawnChild _ -> 1 + call_args
  | SyncWait -> 1

let out_arity (k : node_kind) ~(call_res : int) =
  match k with
  | Steer | FusedSteer _ -> 2
  | Load _ -> 2  (* data; done *)
  | Tload _ -> 2
  | Store _ | Tstore _ -> 1 (* done *)
  | LiveOut _ -> 0
  | CallChild _ -> call_res
  | SpawnChild _ -> 1
  | _ -> 1

let new_task ~tid ~tname ~tkind ~arg_tys ~res_tys : task =
  { tid; tname; tkind; nodes = []; edges = []; next_nid = 0; next_eid = 0;
    arg_tys; res_tys; tiles = 1; queue_depth = 2; children = [] }

let add_node (t : task) ?(label = "") ~(ty : T.ty) (kind : node_kind)
    ~(nins : int) : node =
  let n =
    { nid = t.next_nid; kind; ins = Array.make nins Swire; nty = ty; label }
  in
  t.next_nid <- t.next_nid + 1;
  t.nodes <- t.nodes @ [ n ];
  n

let node (t : task) (nid : node_id) : node =
  match List.find_opt (fun n -> n.nid = nid) t.nodes with
  | Some n -> n
  | None -> invalid_arg (Fmt.str "Graph.node: %d not in task %s" nid t.tname)

let connect ?(capacity = 2) ?(initial = []) (t : task)
    ~(src : node_id * int) ~(dst : node_id * int) : edge =
  let e = { eid = t.next_eid; src; dst; capacity = max capacity 1; initial } in
  t.next_eid <- t.next_eid + 1;
  t.edges <- t.edges @ [ e ];
  e

let set_imm (n : node) (port : int) (v : T.value) = n.ins.(port) <- Simm v

let out_edges (t : task) (nid : node_id) =
  List.filter (fun e -> fst e.src = nid) t.edges

let task (c : circuit) (tid : task_id) : task =
  match List.find_opt (fun t -> t.tid = tid) c.tasks with
  | Some t -> t
  | None -> invalid_arg (Fmt.str "Graph.task: no task %d" tid)

let structure (c : circuit) (sid : struct_id) : struct_inst =
  match List.find_opt (fun s -> s.sid = sid) c.structures with
  | Some s -> s
  | None -> invalid_arg (Fmt.str "Graph.structure: no structure %d" sid)

let structure_of_space (c : circuit) (space : space_id) : struct_inst =
  match List.assoc_opt space c.space_map with
  | Some sid -> structure c sid
  | None -> (
    (* Fall back to the global space's structure. *)
    match List.assoc_opt 0 c.space_map with
    | Some sid -> structure c sid
    | None -> invalid_arg "Graph.structure_of_space: no global structure")

let junction_width (c : circuit) (tid : task_id) =
  match List.assoc_opt tid c.junction_width with Some w -> w | None -> 1

let set_junction_width (c : circuit) (tid : task_id) (w : int) =
  c.junction_width <- (tid, w) :: List.remove_assoc tid c.junction_width

let add_structure (c : circuit) ~(sname : string) (shape : structure) :
    struct_inst =
  let sid =
    1 + List.fold_left (fun m s -> max m s.sid) (-1) c.structures
  in
  let s = { sid; sname; shape } in
  c.structures <- c.structures @ [ s ];
  s

let bind_space (c : circuit) (space : space_id) (sid : struct_id) =
  c.space_map <- (space, sid) :: List.remove_assoc space c.space_map

(** Total node/edge counts across all tasks — the μIR side of the
    Table 4 conciseness comparison. *)
let graph_size (c : circuit) : int * int =
  List.fold_left
    (fun (n, e) t -> (n + List.length t.nodes, e + List.length t.edges))
    (0, 0) c.tasks

(* ------------------------------------------------------------------ *)
(* Queries used by μopt passes                                         *)

let node_space (n : node) : space_id option =
  match n.kind with
  | Load { space } | Store { space } | Tload { space; _ } | Tstore { space; _ }
    -> Some space
  | _ -> None

let is_memory_node (n : node) = node_space n <> None

let memory_nodes (t : task) = List.filter is_memory_node t.nodes

let iter_tasks f (c : circuit) = List.iter f c.tasks

(* ------------------------------------------------------------------ *)
(* Port roles                                                          *)

(** The predicate input of a steer, a memory node and a call or spawn
    site: it routes a steer's data and gates the others. *)
let pred_port = 0

(** [MergeLoop] inputs: the control token, the value the first
    iteration takes, and the value carried around the back edge. *)
let mu_ctl = 0
let mu_init = 1
let mu_back = 2

(** The data input a μ consumes under control token [ctl]. *)
let mu_select (ctl : bool) : int = if ctl then mu_back else mu_init

(** The data input of a [Steer]; a [FusedSteer]'s chain inputs start
    there. *)
let steer_data = 1

(** The output a steer emits on under predicate [pred]. *)
let steer_select (pred : bool) : int = if pred then 0 else 1

(** Memory-node inputs after the predicate: the address, then a
    store's value or a tile access's row stride, then a tile store's
    value.  Inputs from {!in_arity} on carry ordering tokens
    ({!is_order_port}). *)
let mem_addr = 1
let store_value = 2
let tile_stride = 2
let tstore_value = 3

(** A load's data output; its done token follows ({!mem_done}). *)
let load_data = 0

(** The output on which a memory node signals completion: its last. *)
let mem_done (n : node) : int = out_arity n.kind ~call_res:0 - 1

(** Does input [port] of [n] carry an ordering token, not data? *)
let is_order_port (n : node) (port : int) : bool =
  is_memory_node n && port >= in_arity n.kind ~call_args:0

(** The tile a tensor memory node moves. *)
let tile_shape (k : node_kind) : T.shape option =
  match k with
  | Tload { shape; _ } | Tstore { shape; _ } -> Some shape
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Node -> structure attribution                                       *)

(** The hardware structure a node's stalls are charged against: the
    memory structure serving its address space, or the invocation
    queue of the child task it calls/spawns.  The mapping is stable
    across μopt passes — a pass that rebinds a space or re-parents a
    call moves the attribution with it — which is what lets a profile
    name the structure whose widening would remove a bottleneck. *)
type struct_ref = Rstruct of struct_id | Rqueue of task_id

let node_structure (c : circuit) (n : node) : struct_ref option =
  match node_space n, n.kind with
  | Some sp, _ -> Some (Rstruct (structure_of_space c sp).sid)
  | None, (CallChild t | SpawnChild t) -> Some (Rqueue t)
  | None, _ -> None

let struct_ref_name (c : circuit) : struct_ref -> string = function
  | Rstruct sid -> (structure c sid).sname
  | Rqueue tid -> "queue:" ^ (task c tid).tname

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let fu_op_to_string = function
  | Fibin op -> I.ibin_to_string op
  | Ffbin op -> I.fbin_to_string op
  | Ficmp op -> "icmp." ^ I.icmp_to_string op
  | Ffcmp op -> "fcmp." ^ I.fcmp_to_string op
  | Ffunary op -> I.funary_to_string op
  | Fcast op -> I.cast_to_string op
  | Fselect -> "select"
  | Fgep s -> Fmt.str "gep*%d" s
  | Fident -> "ident"

let tensor_op_to_string = function
  | Tmul2 -> "tensor.mul"
  | Tadd2 -> "tensor.add"
  | Trelu2 -> "tensor.relu"

let kind_to_string = function
  | Compute op -> fu_op_to_string op
  | Fused ops ->
    Fmt.str "fused{%s}" (String.concat ";" (List.map fu_op_to_string ops))
  | FusedSteer ops ->
    Fmt.str "fused.steer{%s}"
      (String.concat ";" (List.map fu_op_to_string ops))
  | Merge k -> Fmt.str "merge%d" k
  | MergeLoop -> "mu"
  | Steer -> "steer"
  | Load { space } -> Fmt.str "load@%d" space
  | Store { space } -> Fmt.str "store@%d" space
  | Tload { space; _ } -> Fmt.str "tload@%d" space
  | Tstore { space; _ } -> Fmt.str "tstore@%d" space
  | Tcompute { top; dedicated } ->
    Fmt.str "%s%s" (tensor_op_to_string top) (if dedicated then "!" else "")
  | LiveIn i -> Fmt.str "livein%d" i
  | LiveOut i -> Fmt.str "liveout%d" i
  | CallChild t -> Fmt.str "call.task%d" t
  | SpawnChild t -> Fmt.str "spawn.task%d" t
  | SyncWait -> "sync"

let pp_node ppf (n : node) =
  Fmt.pf ppf "n%d %s : %a%s" n.nid (kind_to_string n.kind) T.pp_ty n.nty
    (if n.label = "" then "" else " ; " ^ n.label)

let pp_task ppf (t : task) =
  Fmt.pf ppf "@[<v2>task %d %s (%s, tiles=%d, queue=%d):@," t.tid t.tname
    (match t.tkind with
    | Tfunc -> "func"
    | Tloop { parallel } -> if parallel then "parallel-loop" else "loop")
    t.tiles t.queue_depth;
  List.iter (fun n -> Fmt.pf ppf "%a@," pp_node n) t.nodes;
  List.iter
    (fun e ->
      Fmt.pf ppf "e%d n%d.%d -> n%d.%d%s@," e.eid (fst e.src) (snd e.src)
        (fst e.dst) (snd e.dst)
        (if e.initial = [] then ""
         else Fmt.str " init[%a]" Fmt.(list ~sep:comma T.pp_value) e.initial))
    t.edges;
  Fmt.pf ppf "@]"

let pp_structure ppf (s : struct_inst) =
  match s.shape with
  | Scratchpad { banks; ports_per_bank; latency; width_words; wb_buffer } ->
    Fmt.pf ppf "scratchpad %s banks=%d ports=%d lat=%d width=%d%s" s.sname
      banks ports_per_bank latency width_words
      (if wb_buffer then " wb" else "")
  | Cache { banks; line_words; size_words; ways; hit_latency; miss_latency }
    ->
    Fmt.pf ppf "cache %s banks=%d line=%d size=%d ways=%d hit=%d miss=%d"
      s.sname banks line_words size_words ways hit_latency miss_latency

let pp_circuit ppf (c : circuit) =
  Fmt.pf ppf "@[<v>circuit %s (root task %d)@," c.cname c.root;
  List.iter (fun s -> Fmt.pf ppf "%a@," pp_structure s) c.structures;
  List.iter
    (fun (sp, sid) -> Fmt.pf ppf "space %d -> structure %d@," sp sid)
    c.space_map;
  List.iter (fun t -> Fmt.pf ppf "%a@," pp_task t) c.tasks;
  Fmt.pf ppf "@]"
