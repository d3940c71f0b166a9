(** Always-on, hardware-style performance counters.

    The μIR paper reads every evaluation number out of per-structure
    hardware counters in the generated RTL — queue occupancies, memory
    stalls, tile utilization — not out of an instruction trace.  This
    module is the software analogue: a bank of exact counters the
    kernel maintains unconditionally, O(1) per event, independent of
    the opt-in event ring in {!Trace} (whose fixed capacity silently
    sheds history on long runs).  The ring remains the source for
    timelines (Chrome trace, VCD, critical path); the counter bank is
    the source for every aggregate number: profiles, run reports, the
    bench regression gate and the DSE greedy strategy.

    {2 The stall taxonomy}

    Every node's lifetime is partitioned into intervals, each labelled
    with exactly one cause.  The kernel transitions a node's label at
    the only points its state can change — a successful firing, a
    failed (woken) fire attempt, invocation drain — so the labels
    partition the node's lifetime {e exactly}:

      busy + Σ stall-cause cycles = lifetime cycles

    for every node, enforced over all workloads by
    [test/test_counters.ml] (and cross-checked against the traced
    taxonomy in [test/test_trace.ml]).

    - [Busy]: the node fired this cycle.
    - [Operand]: at least one wired input channel is empty.
    - [Backpressure]: inputs ready but the output side is full (the
      node's pipeline register file cannot accept another result
      because downstream has not drained).
    - [Memory]: a memory node blocked on its outstanding-request
      window, i.e. waiting on bank queues, conflicts or misses.
    - [Structural]: a non-memory hardware hazard — the function unit's
      initiation interval, or a call/spawn facing a full child task
      queue.
    - [Sync]: a sync node parked until spawned children complete.
    - [Idle]: no invocation in flight; the node has no work. *)

type cause =
  | Busy
  | Operand
  | Backpressure
  | Memory
  | Structural
  | Sync
  | Idle

let ncauses = 7

let cause_index = function
  | Busy -> 0
  | Operand -> 1
  | Backpressure -> 2
  | Memory -> 3
  | Structural -> 4
  | Sync -> 5
  | Idle -> 6

let cause_of_index = [| Busy; Operand; Backpressure; Memory; Structural;
                        Sync; Idle |]

let cause_name = function
  | Busy -> "busy"
  | Operand -> "operand-wait"
  | Backpressure -> "backpressure"
  | Memory -> "memory-outstanding"
  | Structural -> "structural-hazard"
  | Sync -> "sync-wait"
  | Idle -> "idle"

(** What an occupancy counter measures: a task's invocation queue or
    the total queued sub-requests across a memory structure's banks. *)
type key = Ktask of int | Kstruct of int

(** How every report, profile and trace names a key: ["queue:<task>"]
    or the structure's own name. *)
let key_name (c : Muir_core.Graph.circuit) : key -> string = function
  | Ktask tid -> "queue:" ^ (Muir_core.Graph.task c tid).tname
  | Kstruct sid -> (Muir_core.Graph.structure c sid).sname

(* ------------------------------------------------------------------ *)
(* The counter bank                                                     *)

(** Whole-run counters for one static (task, node) pair, across every
    instance/tile/context that instantiated it. *)
type node_ctr = {
  mutable n_fires : int;
  mutable n_span : int;   (** Σ instance lifetimes, in cycles *)
  n_acc : int array;      (** cycles per cause; Σ = [n_span] *)
}

(** Occupancy integral for one queue or memory structure, equal to
    sampling the depth at every cycle boundary: [o_sum / o_cycles] is
    the exact time-average depth and [o_max] the high-water mark — no
    histogram, no ring, O(1) state per structure.  The kernel only
    touches it when the depth moves ({!occ_move}); the held depth is
    integrated lazily, and {!occ_flush} closes the books at run end. *)
type occ_ctr = {
  mutable o_cycles : int;  (** cycle boundaries integrated *)
  mutable o_sum : int;     (** Σ depth over those boundaries *)
  mutable o_max : int;     (** high-water mark *)
  mutable o_depth : int;   (** current depth *)
  mutable o_since : int;   (** first boundary not yet integrated *)
}

type t = {
  nodes : (int * int, node_ctr) Hashtbl.t;   (** (task, node) counters *)
  occ : (key, occ_ctr) Hashtbl.t;
  mutable spawns : int;    (** task invocations enqueued *)
  mutable syncs : int;     (** sync joins completed *)
  mutable final_cycle : int;
}

let create () : t =
  { nodes = Hashtbl.create 128; occ = Hashtbl.create 16;
    spawns = 0; syncs = 0; final_cycle = 0 }

let node_ctr (c : t) ~(task : int) ~(node : int) : node_ctr =
  match Hashtbl.find_opt c.nodes (task, node) with
  | Some g -> g
  | None ->
    let g = { n_fires = 0; n_span = 0; n_acc = Array.make ncauses 0 } in
    Hashtbl.add c.nodes (task, node) g;
    g

(** Fold a finished instance's node accounting into its whole-run
    counter row, resolved once with {!node_ctr}: [fires] firings over
    a lifetime of [span] cycles, whose per-cause cycles are
    [acc.(off .. off + ncauses - 1)].  The kernel closes the node's
    open interval at the end of that lifetime first, which is what
    makes the conservation invariant exact. *)
let fold_into (g : node_ctr) ~(fires : int) ~(span : int) (acc : int array)
    (off : int) : unit =
  g.n_fires <- g.n_fires + fires;
  g.n_span <- g.n_span + span;
  for i = 0 to ncauses - 1 do
    g.n_acc.(i) <- g.n_acc.(i) + acc.(off + i)
  done

(** The occupancy integral for [key], created empty (depth 0 from cycle
    0) on first use.  The kernel resolves each queue's counter once and
    then moves it with {!occ_move} — no variant-key allocation on the
    hot path. *)
let occ_ref (c : t) (key : key) : occ_ctr =
  match Hashtbl.find_opt c.occ key with
  | Some o -> o
  | None ->
    let o = { o_cycles = 0; o_sum = 0; o_max = 0; o_depth = 0; o_since = 0 } in
    Hashtbl.add c.occ key o;
    o

(** Integrate the held depth over the boundaries [o_since, upto).  Only
    a depth held at some boundary can become the high-water mark. *)
let occ_flush (o : occ_ctr) (upto : int) : unit =
  let k = upto - o.o_since in
  if k > 0 then begin
    o.o_cycles <- o.o_cycles + k;
    o.o_sum <- o.o_sum + (k * o.o_depth);
    if o.o_depth > o.o_max then o.o_max <- o.o_depth;
    o.o_since <- upto
  end

(** The depth moves by [d], first sampled at boundary [at]: a change
    made while cycle [c] runs is seen at [c + 1]. *)
let occ_move (o : occ_ctr) (d : int) ~(at : int) : unit =
  occ_flush o at;
  o.o_depth <- o.o_depth + d

(** Close every occupancy integral at [upto], one past the last cycle. *)
let occ_flush_all (c : t) (upto : int) : unit =
  Hashtbl.iter (fun _ o -> occ_flush o upto) c.occ

(* ------------------------------------------------------------------ *)
(* Reading the bank                                                     *)

let iter_nodes (f : task:int -> node:int -> node_ctr -> unit) (c : t) : unit =
  Hashtbl.iter (fun (task, node) g -> f ~task ~node g) c.nodes

let find_node (c : t) ~(task : int) ~(node : int) : node_ctr option =
  Hashtbl.find_opt c.nodes (task, node)

let total_fires (c : t) : int =
  Hashtbl.fold (fun _ g acc -> acc + g.n_fires) c.nodes 0

let occ_keys (c : t) : key list =
  Hashtbl.fold (fun k _ acc -> k :: acc) c.occ []
  |> List.sort compare

let find_occ (c : t) (key : key) : occ_ctr option =
  Hashtbl.find_opt c.occ key
