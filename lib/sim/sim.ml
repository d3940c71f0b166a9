(** Cycle-level simulation of μIR circuits.

    Execution model (§3.2 of the paper): the circuit is a set of
    asynchronously running task blocks.  Each task has a hardware
    queue of pending invocations and [tiles] execution units.  Within
    a task, execution is a pipelined latency-insensitive dataflow:
    every edge is a ready/valid channel (a register stage), nodes fire
    when all wired inputs hold tokens and downstream has space, and
    concurrent invocations complete in order of invocation.

    Two task-instance disciplines exist, both stated in {!Cost}:
    - ordinary tasks run one {e instance per tile}; function tasks
      pipeline multiple invocations through an instance (wave
      pipelining), loop tasks process one invocation at a time (the
      loop ring already pipelines its iterations) unless
      {!Cost.pipelined} lets them wave-pipeline too;
    - tasks on a call/spawn cycle (recursive Cilk tasks such as FIB
      and M-SORT), and tasks reachable from one, are {e dynamic}
      ({!Cost.instancing}'s on-demand set): each invocation gets its
      own context, contexts park while blocked, and at most [tiles]
      contexts may fire datapath operations in a cycle — the
      issue-queue + execution-tile structure of §3.6.

    {2 The event-driven kernel}

    [step] does not sweep every node of every instance.  Each instance
    keeps a fire and an emit wake set, a bitset over its nodes; a node
    is attempted only when something that could enable it changed:
    a token committed into an input channel, space freed in a
    downstream channel, a pipeline, memory or reply-ring entry
    matured, a child task's queue drained, a spawned child joined, or
    an invocation was injected.  Nodes sleeping on latency wake from a
    ring-buffer timing wheel keyed by absolute cycle.  Completion
    checks and junction arbitration likewise run only on instances
    whose state moved, and only channels with staged writes are
    committed.

    {2 Data layout}

    Instance state lives in columns.  A task's {e layout}, built with
    its first instance, holds the task's static rows (each node's kind,
    cost, wiring by channel index and ring ordinals, the initial tokens
    that prime an instance, the counter rows) and the columns that
    every instance's state is a row of: channel cursors and token
    rings in the {!Muir_ir.Flat} encoding, node rows (readiness,
    firings, busy time, ring cursors, stall label), per-cause profile
    rows, pipeline rings, memory windows and access pools, and the
    reply rings of call, spawn and sync nodes.  An instance is a
    {e slot}: its rows sit at the slot's offset in each column.  A
    static instance is a slot allocated at creation; a dynamic context
    takes a retired slot from its task's FIFO pool once the slot's
    retirement cycle has passed, or the next slot, doubling the
    columns when they are full, and is reset in place.  Rows never
    move, so growth invalidates no offset.  The instance record keeps
    what is per instance, not per node: the inflight window, the
    junction queue, the double-buffered wake bitsets and the
    invocation pool; one ALU scratch serves the simulator, since
    staging never outlives a call.  Task-queue entries are pooled flat
    rows and the timing wheel holds plain ints.  The steady-state fire
    path allocates {e zero} words on the OCaml minor heap (asserted by
    the bench gate and by [test/test_sim.ml]) and skips every pointer
    store that would not change the stored value, since each one costs
    a write-barrier call.  Per-cycle work scales with activity: each
    phase visits only tasks with queued work, idle memory structures
    cost one depth check, and queue occupancy is integrated when a
    depth moves rather than sampled.

    The wake discipline is {e precise}: a wake is made only when the
    attempt it causes can fire the node, move a token, change its stall
    label, or complete an invocation.
    - Operand readiness is a per-node count of wired inputs with no
      committed token ([nd_miss]), moved only by commits and pops.
    - A commit into an empty channel wakes the consumer, and an
      emission its own node, unless at the next fire phase the node
      still misses an operand, is past its initiation interval and
      already holds the operand-wait label ({!futile}).  Every other
      fire wake reaches a node that cannot be futile: a busy retry or
      a self-schedule on committed tokens from the timing wheel, a
      caller released from a full child queue, instance birth and
      rebirth, and the idle re-wake below.
    - A pop wakes the producer's emission only if the channel was
      full.  A node that emits through its pipeline ring alone is
      woken for emission only for a new ring head: now if it is due,
      else by one timing-wheel entry at its due cycle.  Live-outs emit
      nothing; memory, call/spawn and sync nodes wake on every firing.
    - The completion check is woken only while [i_full], the count of
      inflight invocations whose live-out tuple is complete, is
      positive.

    Why this is exact.  An emission attempt carries no stall label, so
    one that cannot move a token may be dropped.  A fire attempt that
    fails on a missing operand while the node already holds the
    operand-wait label relabels it with that same label: every
    accounting sum stays the same and the tracer sees no event.
    Between a commit or emission of cycle c and the fire phase of c+1,
    only the completion phase's idle relabel changes a label, operand
    or busy time, and it re-wakes the nodes an emission left unwoken
    that cycle ([nd_skip]).  No invocation completes without a
    complete tuple, and a child's join never completes its owner in
    the same phase (the child's response is emitted next cycle), so
    the skipped checks move no completion.  Under-waking never happens:
    every condition a blocked node waits on has a wake source.  Within
    a cycle the woken nodes are drained in the same deterministic order
    the dense sweep used — tasks in id order, instances in queue order,
    nodes in graph order (the order a wake set yields by construction)
    — so the kernel is bit-for-bit cycle-accurate against the dense
    reference: [total_cycles], [fires] and all utilization stats are
    unchanged on every workload (enforced by the golden constants in
    [test/test_sim.ml]).

    Functional results are written to the same flat memory the golden
    interpreter uses, so every simulation is checkable end to end. *)

module G = Muir_core.Graph
module Cost = Muir_core.Cost
module T = Muir_ir.Types
module F = Muir_ir.Flat
module Tr = Muir_trace.Trace
module Ctr = Muir_trace.Counters

type token = T.value

(* ------------------------------------------------------------------ *)
(* Runtime structures                                                   *)

type sync_ctx = {
  mutable live_children : int;
  mutable cx_owner : instance option;
      (** instance whose invocation owns this context: re-checked for
          completion when a child joins *)
  mutable cx_w_inst : instance array;  (** parked SyncWait nodes *)
  mutable cx_w_node : int array;
  mutable cx_nw : int;
}

(* Reply routing lives in flat fields: [iv_rkind] 0 = root, 1 = call,
   2 = spawn; the remaining fields are dummies for the root reply. *)
and invocation = {
  mutable iv_gen : int;         (** bumped on pool reuse: stale ring
                                    entries referencing a completed
                                    invocation are detectable *)
  mutable iv_wave : int;
  mutable iv_rkind : int;
  mutable iv_rinst : instance;
  mutable iv_rnode : int;       (** node of [iv_rinst] awaiting the reply *)
  mutable iv_rwave : int;
  mutable iv_rctx : sync_ctx;   (** decremented when a spawn completes *)
  mutable iv_eff_ctx : sync_ctx; (** where this invocation's spawns join *)
  iv_own : sync_ctx option;     (** fresh context (function tasks);
                                    pooled with the invocation *)
  iv_lo_tags : int array;       (** live-outs; [tabsent] = not yet set *)
  iv_lo_nums : int array;
  iv_lo_flts : float array;
  iv_lo_objs : token array;
  mutable iv_stores : int;      (** outstanding stores attributed here *)
}

(* An instance is a slot of its task's layout: its node and channel
   state are rows of the layout's columns.  The record keeps what is
   per instance rather than per node: the inflight window, the
   junction queue, the wake sets and the invocation pool. *)
and instance = {
  it : G.task;
  iid : int;
  i_lay : layout;                 (** the task's rows and columns *)
  i_slot : int;                   (** position in the task's [tinst]
                                      and row of its layout's columns *)
  i_cb : int;                     (** [i_slot * y_nch]: channel row base *)
  i_nb : int;                     (** [i_slot * y_nn]: node row base *)
  i_pb : int;                     (** first pipeline ring entry *)
  mutable i_ord : int;            (** drain order within the task *)
  mutable i_born : int;           (** cycle of (re)birth: profile start *)
  (* inflight window: wave-indexed table, pow2, -1 = empty slot *)
  mutable iw_wave : int array;
  mutable iw_iv : invocation array;
  mutable i_lo : int;             (** lowest possibly-inflight wave *)
  mutable i_count : int;          (** inflight invocations *)
  mutable i_full : int;
      (** inflight invocations whose live-out tuple is complete: none
          can complete while this is 0 *)
  mutable next_wave : int;
  mutable live : bool;            (** dynamic instances are retired *)
  mutable i_retired : int;        (** cycle of retirement (pool guard) *)
  idynamic : bool;
  ipipe_loop : bool;
      (** {!Cost.pipelined}: invocations wave-pipeline through the
          ring *)
  (* junction queue: ring of (space, sub-request) *)
  mutable ij_space : int array;
  mutable ij_sr : Memsys.subreq array;
  mutable ij_head : int;
  mutable ij_tail : int;
  (* wake sets: bitsets over node indices, 32 nodes per word, each
     double buffered in one array — words [i_*par, i_*par + i_nw)
     collect wakes, the other half is the set being drained *)
  i_nw : int;
  i_fset : int array;
  mutable i_fpar : int;
  i_eset : int array;
  mutable i_epar : int;
  mutable i_qfire : bool;         (** on the task's fire worklist *)
  mutable i_qemit : bool;
  mutable i_qcomplete : bool;
  mutable i_qjunction : bool;
  mutable ivp : invocation array; (** invocation pool *)
  mutable ivp_n : int;
  i_nres : int;
}

(* A task's layout (see Data layout above).  Building it on demand
   keeps a task that never runs out of the counter bank.  Static rows
   are by node index, in graph order = drain order; channel k carries
   the task's k-th edge.  In the columns:
   - channel k of slot s is the eight-int row at [(s * y_nch + k) * 8]
     of [c_row] (fields [ch_*]): head (next pop), mid (end of
     committed tokens), tail (end of staged writes), the base of its
     ring in the token columns, which hold token c at
     [base + (c land mask)], then the mask, capacity, producer and
     consumer, copied from [y_crow] when the slot is primed so one row
     holds all a channel operation reads.  Writes land between mid and
     tail and become visible at the end-of-cycle commit (mid <- tail),
     so a channel holds staged writes exactly while it is queued for
     that commit;
   - node i of slot s is the row at [(s * y_nn + i) * nd_w] of [n_row]
     (fields [nd_*]) and its per-cause cycles start at half that
     offset in [n_acc];
   - a node's pipeline ring, memory window, access pool and reply ring
     sit at its ordinal among the slot's nodes that own one. *)
and layout = {
  y_g : G.node array;
  y_cost : Cost.t array;
  y_space : int array;            (** address space (memory nodes) *)
  y_pb : int array;               (** node -> pipeline ring offset in a
                                      slot's rings *)
  y_mb : int array;               (** node -> memory window ordinal *)
  y_rb : int array;               (** node -> reply ring ordinal *)
  y_rw : int array;               (** node -> reply tokens per row *)
  y_nn : int;
  y_np : int;                     (** nodes with a pipeline ring *)
  y_nm : int;                     (** memory nodes *)
  y_nr : int;                     (** call, spawn and sync nodes *)
  y_rwid : int;                   (** reply tokens per entry, at least 1 *)
  y_inb : int array;              (** node -> first input row; one past
                                      the last node = row count *)
  y_ich : int array;              (** input row -> channel; -1 = immediate *)
  (* immediates, by input row *)
  y_imt : int array;
  y_imn : int array;
  y_imf : float array;
  y_imo : token array;
  y_out : int array array array;  (** node, out port -> fan-out channels *)
  y_liveins : int array;          (** LiveIn node indices *)
  y_syncs : int array;            (** SyncWait node indices *)
  y_miss0 : int array;            (** node -> readiness count when primed *)
  y_nch : int;
  (* a primed slot 0: channel rows holding the resting tokens, and
     those tokens *)
  y_crow : int array;
  y_ttn : int array;
  y_tflts : float array;
  y_tobjs : token array;
  y_tw : int;                     (** token-column width of one slot *)
  y_nctr : Ctr.node_ctr array;    (** whole-run counter rows, by node *)
  mutable y_slots : int;          (** slots the columns hold *)
  mutable c_row : int array;
  mutable c_tn : int array;        (** tag and num of token c at 2c, 2c+1 *)
  mutable c_flts : float array;
  mutable c_objs : token array;
  mutable n_row : int array;
  mutable n_acc : int array;
  mutable p_int : int array;      (** ready, port, tag, num per entry *)
  mutable p_flts : float array;
  mutable p_objs : token array;
  mutable m_acc : Memsys.access array;
  mutable m_inv : invocation array;
  mutable a_pool : Memsys.access array array;  (** reusable accesses *)
  mutable r_cap : int;            (** entries per reply ring, pow2 *)
  mutable r_wave : int array;     (** reply arrived for this wave; -1 = not *)
  mutable r_inv : invocation array;  (** joined invocation (sync) *)
  mutable r_gen : int array;      (** its [iv_gen] at the join *)
  mutable r_tags : int array;     (** reply tokens (call, spawn) *)
  mutable r_nums : int array;
  mutable r_flts : float array;
  mutable r_objs : token array;
}

(* A task's instance worklist: instances queued in [l_v.(l_h .. l_n-1)],
   deduplicated by a per-list flag on the instance.  While it is
   non-empty, task [l_tid]'s bit is set in [l_act], the task set its
   phase sweeps. *)
type ilist = {
  mutable l_v : instance array;
  mutable l_h : int;
  mutable l_n : int;
  l_tid : int;
  l_act : int array;
}

type task_rt = {
  tk : G.task;
  t_arity : int;
  t_nres : int;
  tdynamic : bool;
  mutable t_lay : layout option;  (** built with the first instance *)
  (* pending invocations: flat ring, row-major args + reply routing *)
  mutable tq_tags : int array;
  mutable tq_nums : int array;
  mutable tq_flts : float array;
  mutable tq_objs : token array;
  mutable tq_ctx : sync_ctx array;  (** the caller's join context *)
  mutable tq_route : int array;   (** reply kind, node and wave, by 3 *)
  mutable tq_rinst : instance array;
  mutable tq_head : int;
  mutable tq_tail : int;
  mutable tinst : instance array;
  mutable tinst_n : int;
  mutable tinvocations : int;     (** total, for stats *)
  mutable tbusy : int;            (** cycles with at least one firing *)
  mutable trr : int;              (** round-robin dispatch cursor *)
  mutable t_next_ord : int;       (** next [i_ord] for dynamic instances
                                      (decreasing: newest first) *)
  (* instance worklists (dedup via i_q* flags) *)
  tf : ilist;                     (** woken for fire *)
  te : ilist;                     (** woken for emit *)
  tc : ilist;                     (** re-check invocation completion *)
  mutable tc2 : instance array;   (** completion-drain scratch *)
  tj : ilist;                     (** queued junction sub-requests *)
  mutable tw_inst : instance array;  (** callers parked on full queue *)
  mutable tw_node : int array;
  mutable tw_n : int;
  (* retired dynamic instances, FIFO (head reused only on a later
     cycle than its retirement, so staged state flushes first) *)
  mutable tp_v : instance array;
  mutable tp_head : int;
  mutable tp_tail : int;
}

type stats = {
  cycles : int;
  dma_cycles : int;
  total_cycles : int;
  fires : int;
  invocations : (string * int) list;
  utilization : (string * float) list;
      (** per task: fraction of cycles with at least one node firing *)
  mem : Memsys.struct_stats list;
  mem_requests : int;
  wall_seconds : float;           (** kernel wall-clock time of [run] *)
  woken_per_cycle : float;
      (** fire attempts per cycle: every node drained from a fire wake
          set is attempted (a wake whose attempt would change nothing
          is not made) *)
  gc_minor_words_per_cycle : float;
      (** steady-state minor-heap allocation rate of the kernel *)
  gc_major_collections : int;     (** major GCs during [run] *)
}

type result = {
  value : token;                  (** root task's return value *)
  memory : Muir_ir.Memory.t;
  stats : stats;
  counters : Ctr.t;               (** always-on performance counters *)
}

exception Deadlock of string
exception Cycle_limit of int

(** Cycles without any activity after which {!run} raises {!Deadlock}. *)
let deadlock_window = 50_000

(* ------------------------------------------------------------------ *)
(* Timing wheel                                                         *)

(* 512-slot wheel of (instance id, node index, absolute cycle, kind);
   kind 0 = fire, 1 = emit.  Entries keep their absolute cycle, so a
   slot can safely hold wakes a full wheel turn ahead.  All columns
   are ints: filling a slot takes no write barrier. *)
let wheel_size = 512

(** Outstanding accesses per memory node (its window's entries). *)
let max_outstanding = 8

(* Node row fields (see [layout]): readiness count (wired inputs
   holding no committed token: 0 = every operand present), firings so
   far (the wave counter), initiation-interval end, the last cycle an
   emission left the node unwoken as {!futile}, pipeline ring, memory
   window cursors, the next wave to reply or join (the reply ring's
   head; its tail is the firing count),
   whether the node is parked on a full child task queue, its stall
   label and the cycle it took it, and its pooled accesses. *)
let nd_miss, nd_fired, nd_busy, nd_skip = (0, 1, 2, 3)
let nd_ph, nd_pt, nd_mh, nd_mt, nd_resp = (4, 5, 6, 7, 8)
let nd_wait, nd_lab, nd_since, nd_apn = (9, 10, 11, 12)
let nd_w = 16

type wslot = {
  mutable wi : int array;
  mutable wn : int array;
  mutable wc : int array;
  mutable wk : int array;
  mutable w_n : int;
}

type t = {
  circ : G.circuit;
  ms : Memsys.t;
  tasks : task_rt array;          (** indexed by task id *)
  mutable now : int;
  mutable fires : int;
  mutable last_activity : int;
  mutable next_iid : int;
  mutable root_done : bool;
  mutable root_val : token;
  junction_width : int array;     (** per task *)
  sc : Exec.sc;                   (** flat ALU scratch: staging never
                                      outlives a call *)
  wheel : wslot array;            (** [wheel_size] slots *)
  mutable insts : instance array; (** every instance, by [iid] *)
  (* channels with staged writes: instance id and channel index *)
  mutable ld_i : int array;
  mutable ld_k : int array;
  mutable ld_n : int;
  mutable woken : int;            (** total fire attempts, stats *)
  tr : Tr.t option;               (** event sink; [None] = tracing off *)
  ctrs : Ctr.t;                   (** always-on counter bank *)
  otasks : Ctr.occ_ctr array;     (** queue-occupancy integrals, by tid *)
  (* per-phase task sets (bits by tid): tasks with queued junction,
     fire, emit or completion work, and tasks with a non-empty
     invocation queue *)
  act_j : int array;
  act_f : int array;
  act_e : int array;
  act_c : int array;
  act_q : int array;
}

(* ------------------------------------------------------------------ *)
(* Small flat-vector helpers                                           *)

(* A pointer store goes through the write barrier even when it changes
   nothing — and most token moves write [F.no_obj] over [F.no_obj] — so
   hot-path stores skip the value already there. *)
let[@inline] set_obj (a : token array) (i : int) (x : token) : unit =
  if a.(i) != x then a.(i) <- x

let[@inline] set_inst (a : instance array) (i : int) (x : instance) : unit =
  if a.(i) != x then a.(i) <- x

(* Double a full growable array, new slots filled with [x].  Callers
   store the result only when the array was full, so a push that fits
   leaves the field (and its write barrier) alone. *)
let grow (arr : 'a array) (x : 'a) : 'a array =
  let cap = Array.length arr in
  let na = Array.make (Int.max 8 (cap * 2)) x in
  Array.blit arr 0 na 0 cap;
  na

(* Amortized push for cold paths; the caller stores the returned
   array and bumps its own count. *)
let vpush : 'a. 'a array -> int -> 'a -> 'a array =
 fun arr n x ->
  let arr = if n < Array.length arr then arr else grow arr x in
  arr.(n) <- x;
  arr

(* Bitsets over dense ids, 32 per word. *)
let[@inline] bit_set (a : int array) (i : int) : unit =
  a.(i lsr 5) <- a.(i lsr 5) lor (1 lsl (i land 31))

let[@inline] bit_clear (a : int array) (i : int) : unit =
  a.(i lsr 5) <- a.(i lsr 5) land lnot (1 lsl (i land 31))

let ipush (l : ilist) (inst : instance) : unit =
  let n = l.l_n in
  if n = l.l_h then bit_set l.l_act l.l_tid;
  if n = Array.length l.l_v then l.l_v <- grow l.l_v inst;
  set_inst l.l_v n inst;
  l.l_n <- n + 1

(* In-place insertion sort of [a.(lo .. hi-1)] (keys are unique and
   lists are short and mostly sorted, so this beats allocating a
   sort). *)
let sort_insts (a : instance array) (lo : int) (hi : int) : unit =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let k = x.i_ord in
    if a.(i - 1).i_ord > k then begin
      let j = ref (i - 1) in
      while !j >= lo && a.(!j).i_ord > k do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    end
  done

(* Bit index of [b], a power of two below 2^32 (de Bruijn
   multiplication: the top five bits of the product name the bit). *)
let ctz_tab =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13;
     23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@inline] bit_index (b : int) : int =
  ctz_tab.(((b * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Lowest set bit of [a] at or above [from], or -1. *)
let rec next_bit (a : int array) (from : int) : int =
  let k = from lsr 5 in
  if k >= Array.length a then -1
  else
    let w = a.(k) land (-1 lsl (from land 31)) in
    if w = 0 then next_bit a ((k + 1) lsl 5)
    else (k lsl 5) + bit_index (w land -w)

(* ------------------------------------------------------------------ *)
(* Dummy rows (array initializers; never read through)                 *)

let dummy_task : G.task =
  { tid = -1; tname = "<none>"; tkind = G.Tfunc; nodes = []; edges = [];
    next_nid = 0; next_eid = 0; arg_tys = []; res_tys = []; tiles = 1;
    queue_depth = 1; children = [] }

let dummy_ctx : sync_ctx =
  { live_children = 0; cx_owner = None; cx_w_inst = [||]; cx_w_node = [||];
    cx_nw = 0 }

let dummy_layout : layout =
  { y_g = [||]; y_cost = [||]; y_space = [||]; y_pb = [||]; y_mb = [||];
    y_rb = [||]; y_rw = [||]; y_nn = 0; y_np = 0; y_nm = 0; y_nr = 0;
    y_rwid = 1; y_inb = [| 0 |]; y_ich = [||]; y_imt = [||]; y_imn = [||];
    y_imf = [||]; y_imo = [||]; y_out = [||]; y_liveins = [||];
    y_syncs = [||]; y_miss0 = [||]; y_nch = 0; y_crow = [||]; y_ttn = [||];
    y_tflts = [||]; y_tobjs = [||]; y_tw = 0; y_nctr = [||]; y_slots = 0;
    c_row = [||]; c_tn = [||]; c_flts = [||]; c_objs = [||]; n_row = [||];
    n_acc = [||]; p_int = [||]; p_flts = [||]; p_objs = [||]; m_acc = [||];
    m_inv = [||]; a_pool = [||]; r_cap = 4; r_wave = [||]; r_inv = [||];
    r_gen = [||]; r_tags = [||]; r_nums = [||]; r_flts = [||]; r_objs = [||] }

let dummy_inst : instance =
  { it = dummy_task; iid = -1; i_lay = dummy_layout; i_slot = 0; i_cb = 0;
    i_nb = 0; i_pb = 0; i_ord = 0; i_born = 0; iw_wave = [||]; iw_iv = [||];
    i_lo = 0; i_count = 0; i_full = 0; next_wave = 0; live = false;
    i_retired = -1; idynamic = false; ipipe_loop = false; ij_space = [||];
    ij_sr = [||]; ij_head = 0; ij_tail = 0; i_nw = 0; i_fset = [||];
    i_fpar = 0; i_eset = [||]; i_epar = 0; i_qfire = false;
    i_qemit = false; i_qcomplete = false; i_qjunction = false; ivp = [||];
    ivp_n = 0; i_nres = 0 }

let dummy_inv : invocation =
  { iv_gen = 0; iv_wave = -1; iv_rkind = 0; iv_rinst = dummy_inst;
    iv_rnode = 0; iv_rwave = 0; iv_rctx = dummy_ctx;
    iv_eff_ctx = dummy_ctx; iv_own = None; iv_lo_tags = [||];
    iv_lo_nums = [||]; iv_lo_flts = [||]; iv_lo_objs = [||];
    iv_stores = 0 }

let dummy_access : Memsys.access = Memsys.make_access ~words:1 ~notify:ignore

(* ------------------------------------------------------------------ *)
(* Column access                                                        *)

(* The int columns of a layout, and the input rows and ring ordinals
   the hot paths look up, are read and written without a bounds check.
   Every column offset is [(slot * count + ordinal) * stride + field]
   with the slot below [y_slots], the ordinal below its count and the
   field below its stride (a ring position is masked below its ring
   size), so it lies inside the column's [y_slots * count * stride]
   entries by construction; a node index is below [y_nn], and a loop
   over a node's input rows stays below the next node's first.  A
   lookup of one named input port keeps its check: a malformed node
   may lack the port. *)
let[@inline] ( .%() ) (a : int array) (o : int) : int = Array.unsafe_get a o

let[@inline] ( .%()<- ) (a : int array) (o : int) (v : int) : unit =
  Array.unsafe_set a o v

(* The same for the float and token columns of channels and pipeline
   rings; a token store skips the value already there, as {!set_obj}
   does. *)
let[@inline] fset (a : float array) (o : int) (v : float) : unit =
  Array.unsafe_set a o v

let[@inline] oget (a : token array) (o : int) : token = Array.unsafe_get a o

let[@inline] oset (a : token array) (o : int) (x : token) : unit =
  if Array.unsafe_get a o != x then Array.unsafe_set a o x

(* ------------------------------------------------------------------ *)
(* Node rows                                                            *)

(* Offset of node [i]'s row of [inst] in [n_row]; its per-cause row in
   [n_acc] starts at half of it. *)
let[@inline] nd_row (inst : instance) (i : int) : int =
  (inst.i_nb + i) * nd_w

let[@inline] kind_of (inst : instance) (i : int) : G.node_kind =
  inst.i_lay.y_g.(i).kind

(* Close node row [j]'s current interval at [now] and relabel it; true
   if the label changed (callers use this to avoid flooding the event
   ring with repeated stall events). *)
let relabel (y : layout) (j : int) (st : int) (now : int) : bool =
  let r = y.n_row in
  let since = r.%(j + nd_since) and cur = r.%(j + nd_lab) in
  if now > since then begin
    let a = (j lsr 1) + cur in
    y.n_acc.%(a) <- y.n_acc.%(a) + (now - since);
    r.%(j + nd_since) <- now
  end;
  if cur = st then false
  else begin
    r.%(j + nd_lab) <- st;
    true
  end

let busy_label = Ctr.cause_index Ctr.Busy

(* A firing at [now]: node row [j] is busy for that cycle, then takes
   label [st] — {!relabel} to busy at [now], then to [st] at
   [now + 1]. *)
let relabel_fired (y : layout) (j : int) (st : int) (now : int) : unit =
  let r = y.n_row and a = j lsr 1 in
  let since = r.%(j + nd_since) in
  if now > since then begin
    let c = a + r.%(j + nd_lab) in
    y.n_acc.%(c) <- y.n_acc.%(c) + (now - since)
  end;
  y.n_acc.%(a + busy_label) <- y.n_acc.%(a + busy_label) + 1;
  r.%(j + nd_since) <- now + 1;
  r.%(j + nd_lab) <- st

(* ------------------------------------------------------------------ *)
(* Wake plumbing                                                        *)

(* Add node [i] to the pending half of a wake set; true if it was not
   there yet. *)
let[@inline] wake_bit (set : int array) (par : int) (i : int) : bool =
  let k = par + (i lsr 5) in
  let w = set.(k) in
  let b = 1 lsl (i land 31) in
  if w land b <> 0 then false
  else begin
    set.(k) <- w lor b;
    true
  end

let wake_fire (sim : t) (inst : instance) (i : int) : unit =
  if inst.live && wake_bit inst.i_fset inst.i_fpar i && not inst.i_qfire
  then begin
    inst.i_qfire <- true;
    ipush sim.tasks.(inst.it.tid).tf inst
  end

let wake_emit (sim : t) (inst : instance) (i : int) : unit =
  if inst.live && wake_bit inst.i_eset inst.i_epar i && not inst.i_qemit
  then begin
    inst.i_qemit <- true;
    ipush sim.tasks.(inst.it.tid).te inst
  end

(* No invocation completes without a complete live-out tuple, so an
   instance holding none has nothing to check. *)
let wake_complete (sim : t) (inst : instance) : unit =
  if inst.live && inst.i_full > 0 && not inst.i_qcomplete then begin
    inst.i_qcomplete <- true;
    ipush sim.tasks.(inst.it.tid).tc inst
  end

let wake_junction (sim : t) (inst : instance) : unit =
  if inst.live && not inst.i_qjunction then begin
    inst.i_qjunction <- true;
    ipush sim.tasks.(inst.it.tid).tj inst
  end

(** Schedule a wake of node [i] at absolute cycle [c] (clamped to the
    future); [kind] 0 = fire, 1 = emit. *)
let at (sim : t) (c : int) (inst : instance) (i : int) (kind : int) : unit =
  let c = Int.max c (sim.now + 1) in
  let s = sim.wheel.(c land (wheel_size - 1)) in
  let m = s.w_n in
  if m = Array.length s.wc then begin
    s.wi <- grow s.wi 0;
    s.wn <- grow s.wn 0;
    s.wc <- grow s.wc 0;
    s.wk <- grow s.wk 0
  end;
  s.wi.(m) <- inst.iid;
  s.wn.(m) <- i;
  s.wc.(m) <- c;
  s.wk.(m) <- kind;
  s.w_n <- m + 1

(* Drain this cycle's wheel slot, keeping entries whose absolute cycle
   lies a full wheel turn ahead. *)
let rec drain_slot (sim : t) (s : wslot) (i : int) (n : int) (kept : int)
    : int =
  if i >= n then kept
  else if s.wc.(i) = sim.now then begin
    let inst = sim.insts.(s.wi.(i)) in
    if s.wk.(i) = 0 then wake_fire sim inst s.wn.(i)
    else wake_emit sim inst s.wn.(i);
    drain_slot sim s (i + 1) n kept
  end
  else begin
    s.wi.(kept) <- s.wi.(i);
    s.wn.(kept) <- s.wn.(i);
    s.wc.(kept) <- s.wc.(i);
    s.wk.(kept) <- s.wk.(i);
    drain_slot sim s (i + 1) n (kept + 1)
  end

let drain_timed (sim : t) : unit =
  let s = sim.wheel.(sim.now land (wheel_size - 1)) in
  if s.w_n > 0 then s.w_n <- drain_slot sim s 0 s.w_n 0

(** A spawned child joined or a context count moved: re-check the
    owner's completion and retry every parked sync. *)
let ctx_dec (sim : t) (c : sync_ctx) : unit =
  c.live_children <- c.live_children - 1;
  (match c.cx_owner with Some i -> wake_complete sim i | None -> ());
  for i = 0 to c.cx_nw - 1 do
    wake_emit sim c.cx_w_inst.(i) c.cx_w_node.(i)
  done

(* ------------------------------------------------------------------ *)
(* Channel operations                                                   *)

(* Statically allocated 0.0 for constant-token pushes: passing a float
   literal through the array-indexed push API without a fresh box. *)
let f0 = [| 0.0 |]

(* Channel row fields (see [layout]). *)
let ch_hd, ch_md, ch_tl, ch_base = (0, 1, 2, 3)
let ch_mask, ch_cap, ch_src, ch_dst = (4, 5, 6, 7)

(* Offset of channel [k]'s row of [inst] in [c_row]. *)
let[@inline] ch_row (inst : instance) (k : int) : int = (inst.i_cb + k) lsl 3

let[@inline] ch_space (r : int array) (o : int) : bool =
  r.%(o + ch_tl) - r.%(o + ch_hd) < r.%(o + ch_cap)

let ch_push (sim : t) (inst : instance) (k : int) (tag : int) (num : int)
    (flts : float array) (fi : int) (obj : token) : unit =
  let y = inst.i_lay in
  let r = y.c_row and o = ch_row inst k in
  let tl = r.%(o + ch_tl) in
  let i = r.%(o + ch_base) + (tl land r.%(o + ch_mask)) in
  y.c_tn.%(2 * i) <- tag;
  y.c_tn.%((2 * i) + 1) <- num;
  fset y.c_flts i flts.(fi);
  oset y.c_objs i obj;
  r.%(o + ch_tl) <- tl + 1;
  (* The first staged write queues the channel for commit. *)
  if tl = r.%(o + ch_md) then begin
    let n = sim.ld_n in
    if n = Array.length sim.ld_i then begin
      sim.ld_i <- grow sim.ld_i 0;
      sim.ld_k <- grow sim.ld_k 0
    end;
    sim.ld_i.(n) <- inst.iid;
    sim.ld_k.(n) <- k;
    sim.ld_n <- n + 1
  end

let rec fans_space (inst : instance) (fs : int array) (j : int) : bool =
  j >= Array.length fs
  || (ch_space inst.i_lay.c_row (ch_row inst fs.(j))
      && fans_space inst fs (j + 1))

(** Room on every channel of out port [p] of node [i]. *)
let port_space (inst : instance) (i : int) (p : int) : bool =
  fans_space inst inst.i_lay.y_out.(i).(p) 0

(** Stage a token on every channel of out port [p] of node [i]. *)
let emit_port (sim : t) (inst : instance) (i : int) (p : int) (tag : int)
    (num : int) (flts : float array) (fi : int) (obj : token) : unit =
  let fs = inst.i_lay.y_out.(i).(p) in
  for j = 0 to Array.length fs - 1 do
    ch_push sim inst fs.(j) tag num flts fi obj
  done

let[@inline] n_inputs (y : layout) (i : int) : int =
  y.y_inb.%(i + 1) - y.y_inb.%(i)

(** Stage input [p] of node [i] only; false if empty. *)
let stage_one (inst : instance) (i : int) (sc : Exec.sc) (p : int) : bool =
  let y = inst.i_lay in
  let q = y.y_inb.(i) + p in
  let k = y.y_ich.(q) in
  if k < 0 then begin
    sc.Exec.stags.(p) <- y.y_imt.(q);
    sc.Exec.snums.(p) <- y.y_imn.(q);
    sc.Exec.sflts.(p) <- y.y_imf.(q);
    set_obj sc.Exec.sobjs p y.y_imo.(q);
    true
  end
  else begin
    let r = y.c_row and o = ch_row inst k in
    let h = r.%(o + ch_hd) in
    if r.%(o + ch_md) = h then false
    else begin
      let j = r.%(o + ch_base) + (h land r.%(o + ch_mask)) in
      sc.Exec.stags.(p) <- y.c_tn.%(2 * j);
      sc.Exec.snums.(p) <- y.c_tn.%((2 * j) + 1);
      sc.Exec.sflts.(p) <- Array.unsafe_get y.c_flts j;
      set_obj sc.Exec.sobjs p (oget y.c_objs j);
      true
    end
  end

let input_ready (inst : instance) (i : int) (p : int) : bool =
  let y = inst.i_lay in
  let k = y.y_ich.(y.y_inb.(i) + p) in
  k < 0
  ||
  let o = ch_row inst k in
  y.c_row.%(o + ch_md) > y.c_row.%(o + ch_hd)

(* A mu's data input picked by its control token (which must be
   present). *)
let mu_sel (inst : instance) (i : int) : int =
  let y = inst.i_lay in
  let q = y.y_inb.(i) + G.mu_ctl in
  let k = y.y_ich.(q) in
  if k < 0 then
    G.mu_select (Exec.truthy_flat y.y_imt.(q) y.y_imn.(q) y.y_imo.(q))
  else begin
    let r = y.c_row and o = ch_row inst k in
    let j = r.%(o + ch_base) + (r.%(o + ch_hd) land r.%(o + ch_mask)) in
    G.mu_select
      (Exec.truthy_flat y.c_tn.%(2 * j) y.c_tn.%((2 * j) + 1) (oget y.c_objs j))
  end

(** Does node [i] hold every operand its next firing consumes?  A mu
    needs its control token and the data input that token selects;
    every other node needs all wired inputs. *)
let can_start (inst : instance) (i : int) : bool =
  match kind_of inst i with
  | G.MergeLoop ->
    input_ready inst i G.mu_ctl && input_ready inst i (mu_sel inst i)
  | _ -> inst.i_lay.n_row.%(nd_row inst i + nd_miss) = 0

let operand_wait = Ctr.cause_index Ctr.Operand

(** Would a fire attempt of node [i] at cycle [c] change nothing?  True
    when it is past its initiation interval, still misses an operand
    and is already labelled operand-wait: the attempt would fail on
    the operand and relabel the node with the label it holds, which
    leaves every accounting sum the same and emits no tracer event. *)
let futile (inst : instance) (i : int) (c : int) : bool =
  let r = inst.i_lay.n_row and j = nd_row inst i in
  r.%(j + nd_busy) <= c
  && r.%(j + nd_lab) = operand_wait
  && not (can_start inst i)

let pop_in (sim : t) (inst : instance) (i : int) (p : int) : unit =
  let y = inst.i_lay in
  let k = y.y_ich.(y.y_inb.(i) + p) in
  if k >= 0 then begin
    let r = y.c_row and o = ch_row inst k in
    let full = not (ch_space r o) in
    let h = r.%(o + ch_hd) + 1 in
    r.%(o + ch_hd) <- h;
    if h = r.%(o + ch_md) then begin
      let j = nd_row inst i + nd_miss in
      y.n_row.%(j) <- y.n_row.%(j) + 1
    end;
    (* Space freed in a full channel: the producer's blocked emission
       may proceed.  A channel that had space blocked no port. *)
    if full then wake_emit sim inst r.%(o + ch_src)
  end

(** Stage every input of node [i], which holds every operand, into
    rows [0 ..] of [sc] and pop it, resolving each channel once. *)
let take_all (sim : t) (inst : instance) (i : int) (sc : Exec.sc) : unit =
  let y = inst.i_lay in
  let q0 = y.y_inb.%(i) in
  for q = q0 to y.y_inb.%(i + 1) - 1 do
    let p = q - q0 and k = y.y_ich.%(q) in
    if k < 0 then begin
      sc.Exec.stags.(p) <- y.y_imt.(q);
      sc.Exec.snums.(p) <- y.y_imn.(q);
      sc.Exec.sflts.(p) <- y.y_imf.(q);
      set_obj sc.Exec.sobjs p y.y_imo.(q)
    end
    else begin
      let r = y.c_row and o = ch_row inst k in
      let h = r.%(o + ch_hd) in
      let t = r.%(o + ch_base) + (h land r.%(o + ch_mask)) in
      sc.Exec.stags.(p) <- y.c_tn.%(2 * t);
      sc.Exec.snums.(p) <- y.c_tn.%((2 * t) + 1);
      sc.Exec.sflts.(p) <- Array.unsafe_get y.c_flts t;
      set_obj sc.Exec.sobjs p (oget y.c_objs t);
      let full = not (ch_space r o) in
      r.%(o + ch_hd) <- h + 1;
      if h + 1 = r.%(o + ch_md) then begin
        let j = nd_row inst i + nd_miss in
        y.n_row.%(j) <- y.n_row.%(j) + 1
      end;
      if full then wake_emit sim inst r.%(o + ch_src)
    end
  done

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)

let imm_token = function
  | G.Simm v -> v
  | G.Swire -> T.VPoison

let rec pow2_at_least (n : int) (p : int) = if p >= n then p else
  pow2_at_least n (p * 2)

(* Resolve a task's layout: edges to channel indices by node index,
   each node's read-only rows and its ordinals; the columns start
   empty. *)
let build_layout (sim : t) (task : G.task) : layout =
  let nodes = Array.of_list task.nodes in
  let edges = Array.of_list task.edges in
  let nn = Array.length nodes in
  (* Positions by node id, from the index validation reads: sized by
     the largest id present, which may reach past [task.next_nid]. *)
  let idx = (G.index task).ix_pos in
  let inb = Array.make (nn + 1) 0 in
  Array.iteri
    (fun i (n : G.node) -> inb.(i + 1) <- inb.(i) + Array.length n.ins)
    nodes;
  let ich = Array.make inb.(nn) (-1) in
  let outs =
    Array.map
      (fun (n : G.node) ->
        Array.make (max (G.out_arity n.kind ~call_res:16) 1) [])
      nodes
  in
  (* Wired inputs only: a port fed twice keeps its last edge.  Fan-out
     lists run newest edge first. *)
  Array.iteri
    (fun k (e : G.edge) ->
      let i = idx.(fst e.dst) and p = snd e.dst in
      if p < Array.length nodes.(i).ins && nodes.(i).ins.(p) = G.Swire then
        ich.(inb.(i) + p) <- k;
      let o = outs.(idx.(fst e.src)) and q = snd e.src in
      if q < Array.length o then o.(q) <- k :: o.(q))
    edges;
  let imms =
    Array.concat
      (List.map (fun (n : G.node) -> Array.map imm_token n.ins) task.nodes)
  in
  (* Each ring holds its capacity and its resting tokens, rounded up to
     a power of two. *)
  let phys =
    Array.map
      (fun (e : G.edge) ->
        pow2_at_least (max e.capacity (max (List.length e.initial) 1)) 1)
      edges
  in
  let tw = Array.fold_left ( + ) 0 phys in
  let crow = Array.make (Array.length edges * 8) 0 in
  let tok = Array.make tw T.VPoison in
  Array.iteri
    (fun k (e : G.edge) ->
      let o = k lsl 3 in
      if k > 0 then crow.(o + ch_base) <- crow.(o - 8 + ch_base) + phys.(k - 1);
      List.iteri (fun j v -> tok.(crow.(o + ch_base) + j) <- v) e.initial;
      crow.(o + ch_md) <- List.length e.initial;
      crow.(o + ch_tl) <- List.length e.initial;
      crow.(o + ch_mask) <- phys.(k) - 1;
      crow.(o + ch_cap) <- e.capacity;
      crow.(o + ch_src) <- idx.(fst e.src);
      crow.(o + ch_dst) <- idx.(fst e.dst))
    edges;
  (* Each node's ordinal among the nodes [f] holds for (-1 = none),
     and their count. *)
  let ordinal f =
    let c = ref (-1) in
    let a = Array.map (fun n -> if f n then (incr c; !c) else -1) nodes in
    (a, !c + 1)
  in
  let indices f =
    Array.of_list (List.filter (fun i -> f nodes.(i)) (List.init nn Fun.id))
  in
  let pb, np =
    ordinal (fun n ->
        match n.kind with
        | G.Compute _ | G.Fused _ | G.Merge _ | G.Steer | G.FusedSteer _
        | G.MergeLoop | G.Tcompute _ -> true
        | _ -> false)
  in
  let mb, nm = ordinal G.is_memory_node in
  let rb, nr =
    ordinal (fun n ->
        match n.kind with
        | G.CallChild _ | G.SpawnChild _ | G.SyncWait -> true
        | _ -> false)
  in
  let rw =
    Array.map
      (fun (n : G.node) ->
        match n.kind with
        | G.CallChild tid -> List.length sim.tasks.(tid).tk.res_tys
        | G.SpawnChild _ -> 1
        | _ -> 0)
      nodes
  in
  (* The columns start empty, as the dummy layout's. *)
  { dummy_layout with
    y_g = nodes;
    y_cost = Array.map (fun (n : G.node) -> Cost.node_cost n.kind) nodes;
    y_space =
      Array.map (fun n -> Option.value (G.node_space n) ~default:0) nodes;
    y_pb = Array.map (fun o -> if o < 0 then o else o * Cost.pipe_slots) pb;
    y_mb = mb; y_rb = rb; y_rw = rw; y_nn = nn; y_np = np; y_nm = nm;
    y_nr = nr; y_rwid = Array.fold_left max 1 rw; y_inb = inb; y_ich = ich;
    y_imt = Array.map F.tag_of imms; y_imn = Array.map F.num_of imms;
    y_imf = Array.map F.flt_of imms; y_imo = Array.map F.obj_of imms;
    y_out = Array.map (Array.map Array.of_list) outs;
    y_liveins =
      indices (fun n -> match n.kind with G.LiveIn _ -> true | _ -> false);
    y_syncs = indices (fun n -> n.kind = G.SyncWait);
    (* A primed channel holds its resting tokens: an input misses its
       operand exactly when its channel rests empty. *)
    y_miss0 =
      Array.init nn (fun i ->
          let m = ref 0 in
          for q = inb.(i) to inb.(i + 1) - 1 do
            if ich.(q) >= 0 && crow.((ich.(q) lsl 3) + ch_tl) = 0 then incr m
          done;
          !m);
    y_nch = Array.length edges; y_crow = crow;
    y_ttn =
      Array.init (2 * tw) (fun c ->
          if c land 1 = 0 then F.tag_of tok.(c / 2) else F.num_of tok.(c / 2));
    y_tflts = Array.map F.flt_of tok; y_tobjs = Array.map F.obj_of tok;
    y_tw = tw;
    y_nctr =
      Array.map
        (fun (n : G.node) -> Ctr.node_ctr sim.ctrs ~task:task.tid ~node:n.nid)
        nodes }

let layout (sim : t) (trt : task_rt) : layout =
  match trt.t_lay with
  | Some y -> y
  | None ->
    let y = build_layout sim trt.tk in
    trt.t_lay <- Some y;
    y

(* Make room for slot [s] in [y]'s columns, doubling them. *)
let grow_slots (y : layout) (s : int) : unit =
  if s >= y.y_slots then begin
    let old = y.y_slots in
    let cap = Int.max (s + 1) (2 * old) in
    let ext a w x =
      let na = Array.make (cap * w) x in
      Array.blit a 0 na 0 (Array.length a);
      na
    in
    y.c_row <- ext y.c_row (y.y_nch * 8) 0;
    y.c_tn <- ext y.c_tn (2 * y.y_tw) 0;
    y.c_flts <- ext y.c_flts y.y_tw 0.0;
    y.c_objs <- ext y.c_objs y.y_tw F.no_obj;
    y.n_row <- ext y.n_row (y.y_nn * nd_w) 0;
    y.n_acc <- ext y.n_acc (y.y_nn * 8) 0;
    let pw = y.y_np * Cost.pipe_slots in
    y.p_int <- ext y.p_int (pw * 4) 0;
    y.p_flts <- ext y.p_flts pw 0.0;
    y.p_objs <- ext y.p_objs pw F.no_obj;
    y.m_acc <- ext y.m_acc (y.y_nm * max_outstanding) dummy_access;
    y.m_inv <- ext y.m_inv (y.y_nm * max_outstanding) dummy_inv;
    y.a_pool <- ext y.a_pool y.y_nm [||];
    let rt = y.y_nr * y.r_cap in
    y.r_wave <- ext y.r_wave rt (-1);
    y.r_inv <- ext y.r_inv rt dummy_inv;
    y.r_gen <- ext y.r_gen rt 0;
    y.r_tags <- ext y.r_tags (rt * y.y_rwid) F.tabsent;
    y.r_nums <- ext y.r_nums (rt * y.y_rwid) 0;
    y.r_flts <- ext y.r_flts (rt * y.y_rwid) 0.0;
    y.r_objs <- ext y.r_objs (rt * y.y_rwid) F.no_obj;
    y.y_slots <- cap
  end

(* Bring a fresh or retired slot to its first cycle: node rows clear,
   every node idle since now, reply rings empty, channels holding
   their initial tokens and readiness counts matching them, and every
   node woken — the first cycle behaves like a dense sweep, since
   initial loop-control tokens can enable nodes with no other wake
   source.  A node keeps its pooled accesses. *)
let prime (sim : t) (inst : instance) : unit =
  let y = inst.i_lay in
  let nr = y.n_row in
  let idle = Ctr.cause_index Ctr.Idle in
  for i = 0 to y.y_nn - 1 do
    let j = nd_row inst i in
    let apn = nr.%(j + nd_apn) in
    Array.fill nr j nd_w 0;
    nr.%(j + nd_skip) <- -1;
    nr.%(j + nd_lab) <- idle;
    nr.%(j + nd_since) <- sim.now;
    nr.%(j + nd_apn) <- apn
  done;
  Array.fill y.n_acc (inst.i_nb * 8) (y.y_nn * 8) 0;
  Array.fill y.r_wave (inst.i_slot * y.y_nr * y.r_cap) (y.y_nr * y.r_cap) (-1);
  inst.i_born <- sim.now;
  let t = inst.i_slot * y.y_tw in
  Array.blit y.y_crow 0 y.c_row (ch_row inst 0) (y.y_nch * 8);
  for k = 0 to y.y_nch - 1 do
    let o = ch_row inst k + ch_base in
    y.c_row.%(o) <- y.c_row.%(o) + t
  done;
  Array.blit y.y_ttn 0 y.c_tn (2 * t) (2 * y.y_tw);
  Array.blit y.y_tflts 0 y.c_flts t y.y_tw;
  Array.blit y.y_tobjs 0 y.c_objs t y.y_tw;
  for i = 0 to y.y_nn - 1 do
    nr.%(nd_row inst i + nd_miss) <- y.y_miss0.(i);
    wake_fire sim inst i
  done

(* A fresh instance takes the task's next slot and joins its roster,
   which feeds the final counter fold and the deadlock dump. *)
let new_instance (sim : t) (trt : task_rt) : instance =
  let y = layout sim trt in
  let slot = trt.tinst_n in
  grow_slots y slot;
  let iid = sim.next_iid in
  sim.next_iid <- iid + 1;
  let nw = (y.y_nn + 31) lsr 5 in
  let inst =
    { dummy_inst with
      it = trt.tk; iid; i_lay = y; i_slot = slot; i_cb = slot * y.y_nch;
      i_nb = slot * y.y_nn; i_pb = slot * y.y_np * Cost.pipe_slots;
      live = true; idynamic = trt.tdynamic;
      ipipe_loop = Cost.pipelined trt.tk; i_nw = nw;
      i_fset = Array.make (2 * nw) 0; i_eset = Array.make (2 * nw) 0;
      i_nres = trt.t_nres }
  in
  sim.insts <- vpush sim.insts iid inst;
  trt.tinst <- vpush trt.tinst slot inst;
  trt.tinst_n <- slot + 1;
  prime sim inst;
  inst

(* Rebirth a pooled dynamic instance in place: its own fields cleared,
   its slot primed — no allocation on this path beyond worklist
   growth. *)
let reset_instance (sim : t) (inst : instance) : unit =
  if Array.length inst.iw_wave > 0 then
    Array.fill inst.iw_wave 0 (Array.length inst.iw_wave) (-1);
  inst.i_lo <- 0;
  inst.i_count <- 0;
  inst.i_full <- 0;
  inst.next_wave <- 0;
  inst.ij_head <- 0;
  inst.ij_tail <- 0;
  Array.fill inst.i_fset 0 (2 * inst.i_nw) 0;
  Array.fill inst.i_eset 0 (2 * inst.i_nw) 0;
  inst.i_qfire <- false;
  inst.i_qemit <- false;
  inst.i_qcomplete <- false;
  inst.i_qjunction <- false;
  inst.live <- true;
  prime sim inst

(* Retired-instance pool ring (FIFO; the head is only reusable once
   its retirement cycle has passed, so staged channel writes from the
   dying cycle have flushed). *)
let pool_put (trt : task_rt) (inst : instance) : unit =
  let cap = Array.length trt.tp_v in
  let n = trt.tp_tail - trt.tp_head in
  if n = cap then begin
    let ncap = max 8 (cap * 2) in
    let nv = Array.make ncap inst in
    for i = 0 to n - 1 do
      nv.(i) <- trt.tp_v.((trt.tp_head + i) mod max cap 1)
    done;
    trt.tp_v <- nv;
    trt.tp_head <- 0;
    trt.tp_tail <- n
  end;
  trt.tp_v.(trt.tp_tail mod Array.length trt.tp_v) <- inst;
  trt.tp_tail <- trt.tp_tail + 1

let acquire_instance (sim : t) (trt : task_rt) : instance =
  if
    trt.tp_tail - trt.tp_head > 0
    && trt.tp_v.(trt.tp_head mod Array.length trt.tp_v).i_retired < sim.now
  then begin
    let inst = trt.tp_v.(trt.tp_head mod Array.length trt.tp_v) in
    trt.tp_head <- trt.tp_head + 1;
    reset_instance sim inst;
    inst
  end
  else new_instance sim trt

let create ?tracer (c : G.circuit) : t =
  Muir_core.Validate.check_exn c;
  let ctrs = Ctr.create () in
  let mem = Muir_ir.Memory.create c.prog in
  let ms = Memsys.create ~ctrs c mem in
  let n = List.length c.tasks in
  let dyn = (Cost.instancing c).on_demand in
  let arity =
    List.concat_map
      (fun (t : G.task) ->
        List.map (fun (nd : G.node) -> Array.length nd.ins) t.nodes)
      c.tasks
  in
  let act () = Array.make ((n + 31) lsr 5) 0 in
  let act_j = act () and act_f = act () and act_e = act () in
  let act_c = act () and act_q = act () in
  let ilist tid l_act = { l_v = [||]; l_h = 0; l_n = 0; l_tid = tid; l_act } in
  let tasks =
    Array.of_list
      (List.map
         (fun (t : G.task) ->
           { tk = t; t_arity = List.length t.arg_tys;
             t_nres = List.length t.res_tys; tdynamic = dyn.(t.tid);
             t_lay = None;
             tq_tags = [||]; tq_nums = [||]; tq_flts = [||];
             tq_objs = [||]; tq_ctx = [||]; tq_route = [||]; tq_rinst = [||];
             tq_head = 0; tq_tail = 0; tinst = [||];
             tinst_n = 0; tinvocations = 0; tbusy = 0; trr = 0;
             t_next_ord = -1; tf = ilist t.tid act_f; te = ilist t.tid act_e;
             tc = ilist t.tid act_c; tc2 = [||]; tj = ilist t.tid act_j;
             tw_inst = [||]; tw_node = [||]; tw_n = 0; tp_v = [||];
             tp_head = 0; tp_tail = 0 })
         c.tasks)
  in
  let sim =
    { circ = c; ms; tasks; now = 0; fires = 0; last_activity = 0;
      next_iid = 0; root_done = false; root_val = T.VUnit;
      junction_width = Array.init n (fun tid -> G.junction_width c tid);
      (* rows for the widest node's operands and a fused chain's scratch *)
      sc = Exec.make_sc ~slots:((2 * List.fold_left max 1 arity) + 4);
      wheel =
        Array.init wheel_size (fun _ ->
            { wi = [||]; wn = [||]; wc = [||]; wk = [||]; w_n = 0 });
      insts = [||]; ld_i = [||]; ld_k = [||]; ld_n = 0; woken = 0;
      tr = tracer; ctrs;
      otasks = Array.init n (fun tid -> Ctr.occ_ref ctrs (Ctr.Ktask tid));
      act_j; act_f; act_e; act_c; act_q }
  in
  (* Static instances for non-dynamic tasks: one per tile. *)
  Array.iter
    (fun trt ->
      if not trt.tdynamic then begin
        grow_slots (layout sim trt) (trt.tk.tiles - 1);
        for k = 0 to trt.tk.tiles - 1 do
          (new_instance sim trt).i_ord <- k
        done
      end)
    tasks;
  sim

(* ------------------------------------------------------------------ *)
(* Invocation plumbing                                                  *)

(* Wave table: a ring indexed by wave, each wave its own tag (-1 =
   none).  Inflight waves lie in [i_lo, next_wave), so a ring at least
   that wide never collides; an injection that would overflow it
   doubles it. *)
let wv_insert (inst : instance) (wave : int) (iv : invocation) : unit =
  let cap = Array.length inst.iw_wave in
  if wave - inst.i_lo >= cap then begin
    let ncap = max 8 (cap * 2) in
    let nw = Array.make ncap (-1) and ni = Array.make ncap dummy_inv in
    for w = inst.i_lo to wave - 1 do
      if inst.iw_wave.(w land (cap - 1)) = w then begin
        nw.(w land (ncap - 1)) <- w;
        ni.(w land (ncap - 1)) <- inst.iw_iv.(w land (cap - 1))
      end
    done;
    inst.iw_wave <- nw;
    inst.iw_iv <- ni
  end;
  let s = wave land (Array.length inst.iw_wave - 1) in
  inst.iw_wave.(s) <- wave;
  inst.iw_iv.(s) <- iv

let wv_mem (inst : instance) (wave : int) : bool =
  let cap = Array.length inst.iw_wave in
  cap > 0 && inst.iw_wave.(wave land (cap - 1)) = wave

let wv_get (inst : instance) (wave : int) : invocation =
  inst.iw_iv.(wave land (Array.length inst.iw_wave - 1))

let wv_remove (inst : instance) (wave : int) : unit =
  inst.iw_wave.(wave land (Array.length inst.iw_wave - 1)) <- -1;
  inst.i_count <- inst.i_count - 1

let find_inv (inst : instance) (wave : int) : invocation =
  if wv_mem inst wave then wv_get inst wave
  else
    raise
      (Deadlock
         (Fmt.str "task %s: no inflight invocation for wave %d" inst.it.tname
            wave))

(** Oldest inflight wave (advancing the window's low cursor past
    completed waves), or [-1] if none. *)
let rec oldest_wave_from (inst : instance) (w : int) : int =
  if w >= inst.next_wave then -1
  else if wv_mem inst w then w
  else oldest_wave_from inst (w + 1)

let oldest_wave (inst : instance) : int =
  if inst.i_count = 0 then -1
  else begin
    let w = oldest_wave_from inst inst.i_lo in
    if w >= 0 then inst.i_lo <- w;
    w
  end

(** The invocation a firing of node [i] belongs to.  In function tasks
    every node fires exactly once per wave; in loop tasks only one
    invocation is in flight, so attribution is exact in both cases. *)
let attr_inv (inst : instance) (i : int) : invocation =
  match inst.it.tkind with
  | G.Tfunc -> find_inv inst inst.i_lay.n_row.%(nd_row inst i + nd_fired)
  | G.Tloop _ ->
    let w = oldest_wave inst in
    if w >= 0 then wv_get inst w
    else
      raise
        (Deadlock
           (Fmt.str "loop task %s fired with no inflight invocation"
              inst.it.tname))

(** Can this instance accept another invocation right now? *)
let rec ca_ports (inst : instance) (outs : int array array) (p : int) : bool =
  p >= Array.length outs
  || (fans_space inst outs.(p) 0 && ca_ports inst outs (p + 1))

let rec ca_liveins (inst : instance) (k : int) : bool =
  let y = inst.i_lay in
  k >= Array.length y.y_liveins
  || (ca_ports inst y.y_out.(y.y_liveins.(k)) 0 && ca_liveins inst (k + 1))

let can_accept (inst : instance) : bool =
  (match inst.it.tkind with
  | G.Tloop _ -> inst.ipipe_loop || inst.i_count = 0
  | G.Tfunc -> true)
  && ca_liveins inst 0

(* Invocation pool: records (and their own sync context, for function
   tasks) are built once per instance and recycled. *)
let new_invocation (inst : instance) : invocation =
  let own =
    match inst.it.tkind with
    | G.Tfunc ->
      Some
        { live_children = 0; cx_owner = Some inst; cx_w_inst = [||];
          cx_w_node = [||]; cx_nw = 0 }
    | G.Tloop _ -> None
  in
  let nres = inst.i_nres in
  { iv_gen = 0; iv_wave = 0; iv_rkind = 0; iv_rinst = dummy_inst;
    iv_rnode = 0; iv_rwave = 0; iv_rctx = dummy_ctx; iv_eff_ctx = dummy_ctx;
    iv_own = own; iv_lo_tags = Array.make nres F.tabsent;
    iv_lo_nums = Array.make nres 0; iv_lo_flts = Array.make nres 0.0;
    iv_lo_objs = Array.make nres F.no_obj; iv_stores = 0 }

let acquire_inv (inst : instance) : invocation =
  if inst.ivp_n > 0 then begin
    inst.ivp_n <- inst.ivp_n - 1;
    let iv = inst.ivp.(inst.ivp_n) in
    iv.iv_gen <- iv.iv_gen + 1;
    iv
  end
  else new_invocation inst

let release_inv (inst : instance) (iv : invocation) : unit =
  let n = inst.ivp_n in
  if n = Array.length inst.ivp then inst.ivp <- grow inst.ivp iv;
  if inst.ivp.(n) != iv then inst.ivp.(n) <- iv;
  inst.ivp_n <- n + 1

(* Reply rings.  A call, spawn or sync node holds, per slot, a ring of
   the waves between its next reply or join ([nd_resp]) and its firing
   count: a call or spawn row takes the child's reply tokens, which may
   arrive out of order, and its wave tag marks the arrival; a sync
   entry holds the invocation it joins.  Wave c sits at
   [c land (r_cap - 1)] of the ring, so a firing that would overflow
   a ring doubles [r_cap] for every ring of the task, re-laying each
   ring's live waves. *)
let ring_grow (y : layout) : unit =
  let cap = y.r_cap and w = y.y_rwid in
  let n = y.y_slots * y.y_nr * cap * 2 in
  let nw = Array.make n (-1) and ni = Array.make n dummy_inv in
  let ng = Array.make n 0 and nt = Array.make (n * w) F.tabsent in
  let nn = Array.make (n * w) 0 and nf = Array.make (n * w) 0.0 in
  let no = Array.make (n * w) F.no_obj in
  for s = 0 to y.y_slots - 1 do
    for i = 0 to y.y_nn - 1 do
      if y.y_rb.(i) >= 0 then begin
        let j = ((s * y.y_nn) + i) * nd_w and g = (s * y.y_nr) + y.y_rb.(i) in
        for c = y.n_row.%(j + nd_resp) to y.n_row.%(j + nd_fired) - 1 do
          let a = (g * cap) + (c land (cap - 1)) in
          let b = (g * 2 * cap) + (c land ((2 * cap) - 1)) in
          nw.(b) <- y.r_wave.(a);
          ni.(b) <- y.r_inv.(a);
          ng.(b) <- y.r_gen.(a);
          Array.blit y.r_tags (a * w) nt (b * w) w;
          Array.blit y.r_nums (a * w) nn (b * w) w;
          Array.blit y.r_flts (a * w) nf (b * w) w;
          Array.blit y.r_objs (a * w) no (b * w) w
        done
      end
    done
  done;
  y.r_cap <- cap * 2;
  y.r_wave <- nw;
  y.r_inv <- ni;
  y.r_gen <- ng;
  y.r_tags <- nt;
  y.r_nums <- nn;
  y.r_flts <- nf;
  y.r_objs <- no

(* Position of wave [c] in node [i]'s ring; a row's tokens start at
   [pos * y_rwid]. *)
let[@inline] ring_pos (inst : instance) (i : int) (c : int) : int =
  let y = inst.i_lay in
  (((inst.i_slot * y.y_nr) + y.y_rb.%(i)) * y.r_cap) + (c land (y.r_cap - 1))

(* Make room for node [i]'s next firing in its ring. *)
let ring_room (inst : instance) (i : int) : unit =
  let y = inst.i_lay in
  let j = nd_row inst i in
  if y.n_row.%(j + nd_fired) - y.n_row.%(j + nd_resp) >= y.r_cap then
    ring_grow y

(** Mark [wave]'s reply arrived; the caller fills its tokens. *)
let resp_insert (inst : instance) (i : int) (wave : int) : int =
  let s = ring_pos inst i wave in
  inst.i_lay.r_wave.(s) <- wave;
  s

let resp_ready (inst : instance) (i : int) (wave : int) : bool =
  inst.i_lay.r_wave.(ring_pos inst i wave) = wave

(* Junction ring of (space, sub-request) entries awaiting arbitration. *)
let dummy_sr : Memsys.subreq = dummy_access.Memsys.a_srs.(0)

let junction_push (inst : instance) (space : int) (sr : Memsys.subreq) : unit
    =
  let cap = Array.length inst.ij_space in
  let m = inst.ij_tail - inst.ij_head in
  if m = cap then begin
    let ncap = max 8 (cap * 2) in
    let nsp = Array.make ncap 0 in
    let nsr = Array.make ncap dummy_sr in
    for i = 0 to m - 1 do
      let s = (inst.ij_head + i) land (cap - 1) in
      nsp.(i) <- inst.ij_space.(s);
      nsr.(i) <- inst.ij_sr.(s)
    done;
    inst.ij_space <- nsp;
    inst.ij_sr <- nsr;
    inst.ij_head <- 0;
    inst.ij_tail <- m
  end;
  let s = inst.ij_tail land (Array.length inst.ij_space - 1) in
  inst.ij_space.(s) <- space;
  if inst.ij_sr.(s) != sr then inst.ij_sr.(s) <- sr;
  inst.ij_tail <- inst.ij_tail + 1

(* Park sync node [i] of [inst] on its join context (once). *)
let rec cx_parked_from (c : sync_ctx) (inst : instance) (i : int) (k : int)
    : bool =
  k < c.cx_nw
  && ((c.cx_w_inst.(k) == inst && c.cx_w_node.(k) = i)
     || cx_parked_from c inst i (k + 1))

let cx_park (c : sync_ctx) (inst : instance) (i : int) : unit =
  if not (cx_parked_from c inst i 0) then begin
    c.cx_w_inst <- vpush c.cx_w_inst c.cx_nw inst;
    c.cx_w_node <- vpush c.cx_w_node c.cx_nw i;
    c.cx_nw <- c.cx_nw + 1
  end

(* Task invocation queue: a ring of flat rows, [t_arity] argument
   columns plus the reply-routing fields. *)
let tq_len (trt : task_rt) : int = trt.tq_tail - trt.tq_head

let tq_grow (trt : task_rt) : unit =
  let cap = Array.length trt.tq_rinst in
  let ncap = max 8 (cap * 2) in
  let ar = max trt.t_arity 1 in
  let n = trt.tq_tail - trt.tq_head in
  let ntags = Array.make (ncap * ar) F.tabsent in
  let nnums = Array.make (ncap * ar) 0 in
  let nflts = Array.make (ncap * ar) 0.0 in
  let nobjs = Array.make (ncap * ar) F.no_obj in
  let nctx = Array.make ncap dummy_ctx in
  let nrt = Array.make (ncap * 3) 0 in
  let nri = Array.make ncap dummy_inst in
  for i = 0 to n - 1 do
    let s = (trt.tq_head + i) land (cap - 1) in
    Array.blit trt.tq_tags (s * ar) ntags (i * ar) ar;
    Array.blit trt.tq_nums (s * ar) nnums (i * ar) ar;
    Array.blit trt.tq_flts (s * ar) nflts (i * ar) ar;
    Array.blit trt.tq_objs (s * ar) nobjs (i * ar) ar;
    Array.blit trt.tq_route (s * 3) nrt (i * 3) 3;
    nctx.(i) <- trt.tq_ctx.(s);
    nri.(i) <- trt.tq_rinst.(s)
  done;
  trt.tq_tags <- ntags;
  trt.tq_nums <- nnums;
  trt.tq_flts <- nflts;
  trt.tq_objs <- nobjs;
  trt.tq_ctx <- nctx;
  trt.tq_route <- nrt;
  trt.tq_rinst <- nri;
  trt.tq_head <- 0;
  trt.tq_tail <- n

(** Reserve the tail row, which the queue-occupancy integral first
    sees at cycle [at]; the caller fills the argument columns with
    {!tq_arg}. *)
let tq_push (sim : t) (trt : task_rt) ~(at : int) ~(ctx : sync_ctx)
    ~(rkind : int) ~(rinst : instance) ~(rnode : int) ~(rwave : int) : int =
  if trt.tq_tail - trt.tq_head = Array.length trt.tq_rinst then tq_grow trt;
  let s = trt.tq_tail land (Array.length trt.tq_rinst - 1) in
  if trt.tq_ctx.(s) != ctx then trt.tq_ctx.(s) <- ctx;
  trt.tq_route.(3 * s) <- rkind;
  trt.tq_route.((3 * s) + 1) <- rnode;
  trt.tq_route.((3 * s) + 2) <- rwave;
  set_inst trt.tq_rinst s rinst;
  trt.tq_tail <- trt.tq_tail + 1;
  Ctr.occ_move sim.otasks.(trt.tk.tid) 1 ~at;
  bit_set sim.act_q trt.tk.tid;
  s

(* Set argument [k] of queue row [s] to the token [tag, num, flts.(fi),
   obj]. *)
let tq_arg (trt : task_rt) (s : int) (k : int) (tag : int) (num : int)
    (flts : float array) (fi : int) (obj : token) : unit =
  let b = (s * Int.max trt.t_arity 1) + k in
  trt.tq_tags.(b) <- tag;
  trt.tq_nums.(b) <- num;
  trt.tq_flts.(b) <- flts.(fi);
  set_obj trt.tq_objs b obj

(** Pop the head row during the current cycle. *)
let tq_pop (sim : t) (trt : task_rt) : int =
  let s = trt.tq_head land (Array.length trt.tq_rinst - 1) in
  trt.tq_head <- trt.tq_head + 1;
  Ctr.occ_move sim.otasks.(trt.tk.tid) (-1) ~at:(sim.now + 1);
  s

let inject (sim : t) (trt : task_rt) (inst : instance) (s : int) : unit =
  let wave = inst.next_wave in
  inst.next_wave <- wave + 1;
  trt.tinvocations <- trt.tinvocations + 1;
  let iv = acquire_inv inst in
  iv.iv_wave <- wave;
  iv.iv_rkind <- trt.tq_route.(3 * s);
  if iv.iv_rinst != trt.tq_rinst.(s) then iv.iv_rinst <- trt.tq_rinst.(s);
  iv.iv_rnode <- trt.tq_route.((3 * s) + 1);
  iv.iv_rwave <- trt.tq_route.((3 * s) + 2);
  if iv.iv_rctx != trt.tq_ctx.(s) then iv.iv_rctx <- trt.tq_ctx.(s);
  let eff =
    match iv.iv_own with
    | Some c ->
      c.live_children <- 0;
      c.cx_nw <- 0;
      c
    | None -> trt.tq_ctx.(s)
  in
  if iv.iv_eff_ctx != eff then iv.iv_eff_ctx <- eff;
  if inst.i_nres > 0 then Array.fill iv.iv_lo_tags 0 inst.i_nres F.tabsent;
  iv.iv_stores <- 0;
  wv_insert inst wave iv;
  inst.i_count <- inst.i_count + 1;
  if inst.i_nres = 0 then inst.i_full <- inst.i_full + 1;
  let base = s * Int.max trt.t_arity 1 in
  let lis = inst.i_lay.y_liveins in
  for k = 0 to Array.length lis - 1 do
    let j = lis.(k) in
    match kind_of inst j with
    | G.LiveIn i ->
      if i < trt.t_arity then
        emit_port sim inst j 0 trt.tq_tags.(base + i) trt.tq_nums.(base + i)
          trt.tq_flts (base + i) trt.tq_objs.(base + i)
      else emit_port sim inst j 0 F.tpoison 0 f0 0 F.no_obj
    | _ -> ()
  done;
  wake_complete sim inst;
  sim.last_activity <- sim.now

(** Deliver a completed invocation's live-outs to its parent. *)
let deliver (sim : t) (inst : instance) (iv : invocation) : unit =
  match iv.iv_rkind with
  | 0 ->
    sim.root_done <- true;
    sim.root_val <-
      (if inst.i_nres > 1 then
         F.materialize iv.iv_lo_tags.(1) iv.iv_lo_nums.(1) iv.iv_lo_flts.(1)
           iv.iv_lo_objs.(1)
       else T.VUnit)
  | rk ->
    (* A call replies with its live-outs; a spawn joins its context and
       replies with its value, or true from a void child. *)
    if rk = 2 then ctx_dec sim iv.iv_rctx;
    let ri = iv.iv_rinst and n = iv.iv_rnode in
    let y = ri.i_lay in
    let s = resp_insert ri n iv.iv_rwave * y.y_rwid in
    let src, k =
      if rk = 1 then (0, Int.min y.y_rw.(n) inst.i_nres)
      else if inst.i_nres > 1 then (1, 1)
      else begin
        y.r_tags.(s) <- F.ttrue;
        y.r_nums.(s) <- 0;
        y.r_flts.(s) <- 0.0;
        set_obj y.r_objs s F.no_obj;
        (0, 0)
      end
    in
    Array.blit iv.iv_lo_tags src y.r_tags s k;
    Array.blit iv.iv_lo_nums src y.r_nums s k;
    Array.blit iv.iv_lo_flts src y.r_flts s k;
    Array.blit iv.iv_lo_objs src y.r_objs s k;
    wake_emit sim ri n

(** A function-task wave is fully fired once every node (live-ins are
    driven by injection) has consumed it — this is exact because every
    node fires exactly once per wave in a predicated hyperblock. *)
let rec wave_fully_fired_from (inst : instance) (wave : int) (i : int) :
    bool =
  let y = inst.i_lay in
  i >= y.y_nn
  || (let j = nd_row inst i in
      (match kind_of inst i with
      | G.LiveIn _ -> true
      | G.CallChild _ | G.SpawnChild _ ->
        (* The child invoked for this wave must itself have completed
           (its response emitted in order): a void call's side effects
           otherwise race ahead of the caller's completion. *)
        y.n_row.%(j + nd_fired) > wave && y.n_row.%(j + nd_resp) > wave
      | _ -> y.n_row.%(j + nd_fired) > wave)
      && wave_fully_fired_from inst wave (i + 1))

let wave_fully_fired (inst : instance) (wave : int) : bool =
  wave_fully_fired_from inst wave 0

(** A loop instance is quiescent when every token at rest sits on a
    primed edge (loop-control or ordering back edges) at its resting
    count and no node holds in-flight work.  Mid-invocation the
    carried values necessarily occupy other channels or pipelines, so
    quiescence is equivalent to "the invocation has fully drained".  A
    reply ring whose head caught up with its firings holds no wave. *)
let rec lq_nodes_from (inst : instance) (i : int) : bool =
  let y = inst.i_lay in
  i >= y.y_nn
  || (let r = y.n_row and j = nd_row inst i in
      r.%(j + nd_pt) - r.%(j + nd_ph) = 0
      && r.%(j + nd_mt) - r.%(j + nd_mh) = 0
      && (y.y_rb.(i) < 0 || r.%(j + nd_resp) = r.%(j + nd_fired))
      && lq_nodes_from inst (i + 1))

let rec lq_fifos_from (inst : instance) (k : int) : bool =
  let y = inst.i_lay in
  k >= y.y_nch
  || (let o = ch_row inst k in
      y.c_row.%(o + ch_tl) - y.c_row.%(o + ch_hd)
      = y.y_crow.((k lsl 3) + ch_tl)
      && lq_fifos_from inst (k + 1))

let loop_quiescent (inst : instance) : bool =
  lq_nodes_from inst 0
  && inst.ij_tail - inst.ij_head = 0
  && lq_fifos_from inst 0

(* Fold node [i]'s accounting up to cycle [upto], one past the last
   cycle of the instance's life so far, into its whole-run counter
   row. *)
let fold_node (inst : instance) (i : int) (upto : int) : unit =
  let y = inst.i_lay in
  let j = nd_row inst i in
  ignore (relabel y j y.n_row.%(j + nd_lab) upto);
  Ctr.fold_into y.y_nctr.(i) ~fires:y.n_row.%(j + nd_fired)
    ~span:(upto - inst.i_born) y.n_acc (j lsr 1)

let rec lo_ready_from (iv : invocation) (nres : int) (k : int) : bool =
  k >= nres
  || (iv.iv_lo_tags.(k) <> F.tabsent && lo_ready_from iv nres (k + 1))

(* Scan waves [w, next_wave) for completions; returns how many
   completed.  Tail-recursive — the counter rides in an argument. *)
let rec complete_scan (sim : t) (inst : instance) (w : int)
    (completed : int) : int =
  if w >= inst.next_wave then completed
  else
    let completed =
      if
        wv_mem inst w
        &&
        let iv = wv_get inst w in
        lo_ready_from iv inst.i_nres 0
        && iv.iv_stores = 0
        && (match iv.iv_own with
           | Some c -> c.live_children = 0
           | None -> true)
        && (match inst.it.tkind with
           | G.Tfunc -> wave_fully_fired inst w
           | G.Tloop _ ->
             (* leaf loops have no side effects to wait for: the
                live-out tuple is the whole observable result *)
             inst.ipipe_loop || loop_quiescent inst)
      then begin
        let iv = wv_get inst w in
        wv_remove inst w;
        inst.i_full <- inst.i_full - 1;
        sim.last_activity <- sim.now;
        deliver sim inst iv;
        release_inv inst iv;
        completed + 1
      end
      else completed
    in
    complete_scan sim inst (w + 1) completed

let try_complete (sim : t) (trt : task_rt) (inst : instance) : unit =
  let completed = complete_scan sim inst inst.i_lo 0 in
  if completed > 0 then begin
    while inst.i_lo < inst.next_wave && not (wv_mem inst inst.i_lo) do
      inst.i_lo <- inst.i_lo + 1
    done;
    if inst.i_count = 0 then begin
      (* Invocation drained: every node is idle from the next cycle.
         A retiring dynamic instance also folds its accounting into
         the whole-run counter bank here, before it returns to the
         instance pool. *)
      let y = inst.i_lay in
      let idle = Ctr.cause_index Ctr.Idle in
      for i = 0 to y.y_nn - 1 do
        let j = nd_row inst i in
        ignore (relabel y j idle (sim.now + 1));
        (* The idle label makes the attempt an emission skipped as
           futile this cycle matter again. *)
        if y.n_row.%(j + nd_skip) = sim.now then wake_fire sim inst i;
        if inst.idynamic then fold_node inst i (sim.now + 1)
      done;
      if inst.idynamic then begin
        inst.live <- false;
        inst.i_retired <- sim.now;
        pool_put trt inst
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Node firing (phase A)                                                *)

(* Return an access to node [i]'s pool once nothing references it. *)
let pool_access (inst : instance) (i : int) (a : Memsys.access) : unit =
  let y = inst.i_lay in
  let j = nd_row inst i + nd_apn in
  let g = (inst.i_slot * y.y_nm) + y.y_mb.(i) in
  let k = y.n_row.%(j) in
  if k = Array.length y.a_pool.(g) then y.a_pool.(g) <- grow y.a_pool.(g) a;
  let pool = y.a_pool.(g) in
  if pool.(k) != a then pool.(k) <- a;
  y.n_row.%(j) <- k + 1

(* Entry [c] of node [i]'s pipeline ring in [p_flts] and [p_objs]; its
   ready cycle, out port, tag and num sit at four times that in
   [p_int]. *)
let[@inline] pipe_pos (inst : instance) (i : int) (c : int) : int =
  inst.i_pb + inst.i_lay.y_pb.%(i) + (c land (Cost.pipe_slots - 1))

(* Entry [c] of memory node [i]'s outstanding-request window. *)
let[@inline] mem_pos (inst : instance) (i : int) (c : int) : int =
  let y = inst.i_lay in
  (((inst.i_slot * y.y_nm) + y.y_mb.%(i)) * max_outstanding)
  + (c land (max_outstanding - 1))

(* Push a result into node [i]'s pipeline ring.  Callers check
   occupancy first. *)
(* The float rides as [flts.(fi)] rather than a bare [float]: a float
   argument to a non-inlined call is boxed at the boundary (2-3 minor
   words per token), while an array-to-array move stays unboxed. *)
let pipe_push (inst : instance) (i : int) (ready : int) (port : int)
    (tag : int) (num : int) (flts : float array) (fi : int) (obj : token) :
    unit =
  let y = inst.i_lay in
  let j = nd_row inst i + nd_pt in
  let tl = y.n_row.%(j) in
  let s = pipe_pos inst i tl in
  let q = s * 4 in
  y.p_int.%(q) <- ready;
  y.p_int.%(q + 1) <- port;
  y.p_int.%(q + 2) <- tag;
  y.p_int.%(q + 3) <- num;
  fset y.p_flts s flts.(fi);
  oset y.p_objs s obj;
  y.n_row.%(j) <- tl + 1

let zeros4 = Array.make 4 0.0

(* Evaluate a datapath node on the operands staged in [sc] into its
   result row; returns the out port (a steer's pick, else 0). *)
let alu (sc : Exec.sc) (kind : G.node_kind) (argc : int) : int =
  match kind with
  | G.Compute op ->
    Exec.compute_sc sc op 0 argc;
    0
  | G.Fused ops ->
    Exec.fused_sc sc ops argc;
    0
  | G.Merge k ->
    Exec.merge_sc sc k argc;
    0
  | G.Steer | G.FusedSteer _ ->
    let p = G.pred_port and d = G.steer_data in
    let port =
      G.steer_select
        (Exec.truthy_flat sc.Exec.stags.(p) sc.Exec.snums.(p) sc.Exec.sobjs.(p))
    in
    (match kind with
    | G.FusedSteer ops ->
      (* The chain's operands start at the data input: shift them
         down. *)
      let nops = argc - d in
      for k = 0 to nops - 1 do
        sc.Exec.stags.(k) <- sc.Exec.stags.(k + d);
        sc.Exec.snums.(k) <- sc.Exec.snums.(k + d);
        sc.Exec.sflts.(k) <- sc.Exec.sflts.(k + d);
        set_obj sc.Exec.sobjs k sc.Exec.sobjs.(k + d)
      done;
      Exec.fused_sc sc ops nops
    | _ -> Exec.copy_to_result sc d);
    port
  | G.Tcompute { top; _ } ->
    (* Tensor ops produce boxed tiles anyway; the slow path is fine
       here. *)
    Exec.set_result sc (Exec.tensor top (Exec.slot_values sc 0 argc));
    0
  | _ -> invalid_arg "Sim.alu: not a datapath node"

(** Attempt to fire node [i] of [inst], of kind [kind]; true if it
    fired.  A failed
    attempt has no side effects beyond (re)subscribing the node to the
    event that can unblock it.  All operand staging goes through the
    simulator's flat scratch; nothing here allocates. *)
let try_fire (sim : t) (inst : instance) (i : int) (kind : G.node_kind) :
    bool =
  let now = sim.now in
  let y = inst.i_lay in
  let r = y.n_row and j = nd_row inst i in
  let busy = r.%(j + nd_busy) in
  if busy > now then begin
    (* Sleeping on the initiation interval: retry when it expires. *)
    at sim busy inst i 0;
    false
  end
  else
    match kind with
    | G.LiveIn _ -> false (* driven by injection *)
    | G.MergeLoop ->
      (* Consume ctl, then the selected data input only. *)
      let sc = sim.sc in
      let c = G.mu_ctl in
      if not (stage_one inst i sc c) then false
      else begin
        let sel =
          G.mu_select
            (Exec.truthy_flat sc.Exec.stags.(c) sc.Exec.snums.(c)
               sc.Exec.sobjs.(c))
        in
        if not (stage_one inst i sc sel) then false
        else if r.%(j + nd_pt) - r.%(j + nd_ph) >= Cost.pipe_slots then false
        else begin
          pop_in sim inst i c;
          pop_in sim inst i sel;
          pipe_push inst i (now + y.y_cost.(i).latency - 1) 0
            sc.Exec.stags.(sel) sc.Exec.snums.(sel) sc.Exec.sflts sel
            sc.Exec.sobjs.(sel);
          r.%(j + nd_fired) <- r.%(j + nd_fired) + 1;
          true
        end
      end
    | _ ->
      if r.%(j + nd_miss) > 0 then false
      else if
        r.%(j + nd_pt) - r.%(j + nd_ph) >= Cost.pipe_slots && y.y_mb.(i) < 0
      then false
      else begin
        match kind with
        | G.Compute _ | G.Fused _ | G.Merge _ | G.Steer | G.FusedSteer _
        | G.Tcompute _ ->
          let sc = sim.sc in
          take_all sim inst i sc;
          let port = alu sc kind (n_inputs y i) in
          pipe_push inst i (now + y.y_cost.(i).latency - 1) port sc.Exec.rtag
            sc.Exec.rnum sc.Exec.rflt 0 sc.Exec.robj;
          (match kind with
          | G.Merge _ | G.Steer -> ()
          | _ -> r.%(j + nd_busy) <- now + y.y_cost.(i).ii);
          r.%(j + nd_fired) <- r.%(j + nd_fired) + 1;
          true
        | G.Load _ | G.Store _ | G.Tload _ | G.Tstore _ ->
          if r.%(j + nd_mt) - r.%(j + nd_mh) >= max_outstanding then false
          else begin
            let is_store =
              match kind with
              | G.Store _ | G.Tstore _ -> true
              | _ -> false
            in
            (* Attribution: stores pin their invocation; loads only
               advance the oldest-wave cursor (the original never read
               a load's attribution). *)
            let iv = if is_store then attr_inv inst i else dummy_inv in
            if not is_store then ignore (oldest_wave inst);
            let sc = sim.sc in
            take_all sim inst i sc;
            let p = G.pred_port and ad = G.mem_addr in
            let pred_ok =
              Exec.truthy_flat sc.Exec.stags.(p) sc.Exec.snums.(p)
                sc.Exec.sobjs.(p)
            in
            let addr_tag = sc.Exec.stags.(ad) in
            let addr =
              Exec.to_int_flat sc.Exec.stags.(ad) sc.Exec.snums.(ad)
                sc.Exec.sobjs.(ad)
            in
            let s = mem_pos inst i r.%(j + nd_mt) in
            if pred_ok && addr_tag <> F.tpoison then begin
              let k = r.%(j + nd_apn) in
              let a =
                if k > 0 then begin
                  r.%(j + nd_apn) <- k - 1;
                  y.a_pool.((inst.i_slot * y.y_nm) + y.y_mb.(i)).(k - 1)
                end
                else begin
                  let a =
                    Memsys.make_access
                      ~words:
                        (match G.tile_shape kind with
                        | Some sh -> T.shape_words sh
                        | None -> 1)
                      ~notify:ignore
                  in
                  (* The closure is created once per pooled access and
                     lives as long as it does.  Orphaned accesses
                     (write-buffered stores popped before their banks
                     drained) return to the pool on completion instead
                     of waking the node. *)
                  a.Memsys.a_notify <-
                    (fun () ->
                      if a.Memsys.a_orphan then pool_access inst i a
                      else wake_emit sim inst i);
                  a
                end
              in
              Memsys.reset_access a ~is_store;
              (match kind with
              | G.Load _ ->
                a.Memsys.a_n <- 1;
                a.Memsys.a_addrs.(0) <- addr
              | G.Store _ ->
                let v = G.store_value in
                a.Memsys.a_n <- 1;
                a.Memsys.a_addrs.(0) <- addr;
                a.Memsys.a_tags.(0) <- sc.Exec.stags.(v);
                a.Memsys.a_nums.(0) <- sc.Exec.snums.(v);
                a.Memsys.a_flts.(0) <- sc.Exec.sflts.(v);
                set_obj a.Memsys.a_objs 0 sc.Exec.sobjs.(v)
              | G.Tload { shape; _ } | G.Tstore { shape; _ } ->
                let r = G.tile_stride in
                let stride =
                  Exec.to_int_flat sc.Exec.stags.(r) sc.Exec.snums.(r)
                    sc.Exec.sobjs.(r)
                in
                let tile =
                  match sc.Exec.sobjs.(G.tstore_value) with
                  | T.VTensor t when is_store -> t
                  | _ -> zeros4
                in
                let w = T.shape_words shape in
                a.Memsys.a_n <- w;
                for i = 0 to w - 1 do
                  let r = i / shape.cols and c = i mod shape.cols in
                  a.Memsys.a_addrs.(i) <- addr + (r * stride) + c;
                  if is_store then begin
                    a.Memsys.a_tags.(i) <- F.tfloat;
                    a.Memsys.a_nums.(i) <- 0;
                    a.Memsys.a_flts.(i) <- tile.(i);
                    set_obj a.Memsys.a_objs i F.no_obj
                  end
                done
              | _ -> assert false);
              let rt = sim.ms.Memsys.space_of y.y_space.(i) in
              Memsys.split rt a;
              let buffered = is_store && Memsys.store_buffered rt in
              if is_store && not buffered then
                iv.iv_stores <- iv.iv_stores + 1;
              for k = 0 to a.Memsys.a_nsrs - 1 do
                junction_push inst y.y_space.(i) a.Memsys.a_srs.(k)
              done;
              (* write-back buffer: the store is architecturally done
                 the moment the buffer accepts it; it drains to the
                 bank in FIFO order behind this point *)
              if buffered then a.Memsys.a_done <- true;
              if y.m_acc.(s) != a then y.m_acc.(s) <- a
            end
            else if y.m_acc.(s) != dummy_access then
              (* Predicated off (or poison address): a gated entry
                 flows through the window without touching memory. *)
              y.m_acc.(s) <- dummy_access;
            if y.m_inv.(s) != iv then y.m_inv.(s) <- iv;
            r.%(j + nd_mt) <- r.%(j + nd_mt) + 1;
            r.%(j + nd_busy) <- now + y.y_cost.(i).ii;
            r.%(j + nd_fired) <- r.%(j + nd_fired) + 1;
            true
          end
        | G.CallChild tid | G.SpawnChild tid ->
          let sc = sim.sc in
          let p = G.pred_port in
          ignore (stage_one inst i sc p);
          let pred_ok =
            Exec.truthy_flat sc.Exec.stags.(p) sc.Exec.snums.(p)
              sc.Exec.sobjs.(p)
          in
          let child = sim.tasks.(tid) in
          let is_spawn =
            match kind with G.SpawnChild _ -> true | _ -> false
          in
          let queue_cap = child.tk.queue_depth * Int.max child.tk.tiles 1 in
          if pred_ok && tq_len child >= queue_cap && not child.tdynamic
          then begin
            (* Park on the child's full queue; its dispatch pops us
               back onto the worklist. *)
            if r.%(j + nd_wait) = 0 then begin
              r.%(j + nd_wait) <- 1;
              child.tw_inst <- vpush child.tw_inst child.tw_n inst;
              child.tw_node <- vpush child.tw_node child.tw_n i;
              child.tw_n <- child.tw_n + 1
            end;
            false
          end
          else begin
            let wave = r.%(j + nd_fired) in
            ring_room inst i;
            let iv = attr_inv inst i in
            let nin = n_inputs y i in
            take_all sim inst i sc;
            if pred_ok then begin
              let eff = iv.iv_eff_ctx in
              let rkind =
                if is_spawn then begin
                  eff.live_children <- eff.live_children + 1;
                  2
                end
                else 1
              in
              let s =
                tq_push sim child ~at:(now + 1) ~ctx:eff ~rkind ~rinst:inst
                  ~rnode:i ~rwave:wave
              in
              for k = 0 to child.t_arity - 1 do
                if k = 0 then tq_arg child s 0 F.ttrue 0 f0 0 F.no_obj
                else if k < nin then
                  tq_arg child s k sc.Exec.stags.(k) sc.Exec.snums.(k)
                    sc.Exec.sflts k sc.Exec.sobjs.(k)
                else tq_arg child s k F.tpoison 0 f0 0 F.no_obj
              done
            end
            else begin
              (* Predicated off: synthesize an immediate response. *)
              let s = resp_insert inst i wave * y.y_rwid in
              if is_spawn then begin
                y.r_tags.(s) <- F.tpoison;
                y.r_nums.(s) <- 0;
                y.r_flts.(s) <- 0.0;
                set_obj y.r_objs s F.no_obj
              end
              else
                for k = 0 to y.y_rw.(i) - 1 do
                  y.r_tags.(s + k) <- (if k = 0 then F.tfalse else F.tpoison);
                  y.r_nums.(s + k) <- 0;
                  y.r_flts.(s + k) <- 0.0;
                  set_obj y.r_objs (s + k) F.no_obj
                done
            end;
            r.%(j + nd_busy) <- now + y.y_cost.(i).ii;
            r.%(j + nd_fired) <- r.%(j + nd_fired) + 1;
            true
          end
        | G.SyncWait ->
          let iv = attr_inv inst i in
          take_all sim inst i sim.sc;
          ring_room inst i;
          let s = ring_pos inst i r.%(j + nd_fired) in
          if y.r_inv.(s) != iv then y.r_inv.(s) <- iv;
          y.r_gen.(s) <- iv.iv_gen;
          (* Park on the join context: each child completion retries
             the sync's emission. *)
          cx_park iv.iv_eff_ctx inst i;
          r.%(j + nd_fired) <- r.%(j + nd_fired) + 1;
          true
        | G.LiveOut idx ->
          let sc = sim.sc in
          let iv =
            match inst.it.tkind with
            | G.Tfunc -> find_inv inst r.%(j + nd_fired)
            | G.Tloop _ -> attr_inv inst i
          in
          take_all sim inst i sc;
          let fresh = iv.iv_lo_tags.(idx) = F.tabsent in
          iv.iv_lo_tags.(idx) <- sc.Exec.stags.(0);
          iv.iv_lo_nums.(idx) <- sc.Exec.snums.(0);
          iv.iv_lo_flts.(idx) <- sc.Exec.sflts.(0);
          set_obj iv.iv_lo_objs idx sc.Exec.sobjs.(0);
          if fresh && lo_ready_from iv inst.i_nres 0 then
            inst.i_full <- inst.i_full + 1;
          r.%(j + nd_fired) <- r.%(j + nd_fired) + 1;
          true
        | G.LiveIn _ | G.MergeLoop -> assert false
      end

(* ------------------------------------------------------------------ *)
(* Stall classification (always-on)                                     *)

(* Why did this woken node fail to fire?  Mirrors [try_fire]'s failure
   paths; a failed attempt has no side effects, so re-inspecting the
   state after the attempt is exact. *)
let stall_cause (sim : t) (inst : instance) (i : int) : Ctr.cause =
  let y = inst.i_lay in
  let r = y.n_row and j = nd_row inst i in
  if r.%(j + nd_busy) > sim.now then Ctr.Structural
  else
    match kind_of inst i with
    | G.LiveIn _ -> Ctr.Idle (* driven by injection, never stalled *)
    | _ when not (can_start inst i) -> Ctr.Operand
    | G.MergeLoop -> Ctr.Backpressure
    | G.CallChild _ | G.SpawnChild _ -> Ctr.Structural
    | _ ->
      if y.y_mb.(i) >= 0 then Ctr.Memory
      else if r.%(j + nd_pt) - r.%(j + nd_ph) >= Cost.pipe_slots then
        Ctr.Backpressure
      else Ctr.Operand

(* The label a node enters after firing at [sim.now], effective from
   [sim.now + 1].  Any event that changes the node's state relabels it,
   so this only has to be right for the state as left by the firing. *)
let post_fire_cause (sim : t) (inst : instance) (i : int)
    (kind : G.node_kind) (ra : bool) : Ctr.cause =
  let y = inst.i_lay in
  let r = y.n_row and j = nd_row inst i in
  match kind with
  | G.SyncWait -> Ctr.Sync
  | _ ->
    if not ra then Ctr.Operand
    else if r.%(j + nd_busy) > sim.now + 1 then Ctr.Structural
    else if y.y_mb.(i) >= 0 then
      if r.%(j + nd_mt) - r.%(j + nd_mh) >= max_outstanding then Ctr.Memory
      else Ctr.Busy
    else if r.%(j + nd_pt) - r.%(j + nd_ph) >= Cost.pipe_slots then
      Ctr.Backpressure
    else Ctr.Busy

(** Fire attempt plus the event subscriptions a success implies. *)
let fire_node (sim : t) (inst : instance) (i : int) : bool =
  let kind = kind_of inst i in
  let fired = try_fire sim inst i kind in
  (* Interval accounting is always-on (it feeds the counter bank); the
     ring only sees events when a tracer is attached. *)
  let y = inst.i_lay in
  let j = nd_row inst i in
  (* Could the node fire again with the tokens already committed?  No
     other event will arrive for them, so a firing self-schedules its
     next attempt (live-ins never fire here). *)
  let ra = fired && can_start inst i in
  if fired then begin
    relabel_fired y j (Ctr.cause_index (post_fire_cause sim inst i kind ra))
      sim.now;
    match sim.tr with
    | Some tr ->
      Tr.emit tr
        (Tr.Efire
           { c = sim.now; task = inst.it.tid; inst = inst.iid;
             node = y.y_g.(i).nid; lat = y.y_cost.(i).latency })
    | None -> ()
  end
  else begin
    let cause = stall_cause sim inst i in
    let changed = relabel y j (Ctr.cause_index cause) sim.now in
    match sim.tr with
    | Some tr when changed && cause <> Ctr.Idle ->
      Tr.emit tr
        (Tr.Estall
           { c = sim.now; task = inst.it.tid; inst = inst.iid;
             node = y.y_g.(i).nid; cause })
    | _ -> ()
  end;
  if fired then begin
    sim.fires <- sim.fires + 1;
    sim.last_activity <- sim.now;
    (* The firing may have produced something to emit and may have
       changed the instance's completion conditions.  A pipelined
       result is emitted in ring order: only a new head needs a wake,
       now if it is due and on its due cycle otherwise; an entry behind
       it is reached when the head drains ([try_emit]).  A live-out
       emits nothing. *)
    let r = y.n_row in
    if y.y_pb.(i) >= 0 then begin
      if r.%(j + nd_pt) - r.%(j + nd_ph) = 1 then begin
        let ready = y.p_int.%(pipe_pos inst i r.%(j + nd_ph) * 4) in
        if ready <= sim.now then wake_emit sim inst i
        else at sim ready inst i 1
      end
    end
    else (match kind with G.LiveOut _ -> () | _ -> wake_emit sim inst i);
    wake_complete sim inst;
    (match kind with
    | G.Load _ | G.Store _ | G.Tload _ | G.Tstore _ ->
      wake_junction sim inst
    | G.SpawnChild _ ->
      sim.ctrs.Ctr.spawns <- sim.ctrs.Ctr.spawns + 1;
      (* spawns_issued moved: parked syncs may now be able to pass *)
      let syncs = y.y_syncs in
      for k = 0 to Array.length syncs - 1 do
        wake_emit sim inst syncs.(k)
      done
    | _ -> ());
    (* Tokens already committed can enable the next firing without any
       further event: self-schedule past the initiation interval. *)
    if ra then at sim (Int.max r.%(j + nd_busy) (sim.now + 1)) inst i 0;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Emission (phase B)                                                   *)

(* The emission drains below are top-level and tail-recursive, each
   threading its progress flag as an argument: defined locally to
   [try_emit] they would allocate a closure per node per cycle. *)

(* Pipeline outputs (in order). *)
let rec drain_pipe (sim : t) (inst : instance) (i : int) (progressed : bool)
    : bool =
  let y = inst.i_lay in
  let j = nd_row inst i in
  let h = y.n_row.%(j + nd_ph) in
  if y.n_row.%(j + nd_pt) - h > 0 then begin
    let s = pipe_pos inst i h in
    let q = s * 4 in
    if y.p_int.%(q) <= sim.now && port_space inst i y.p_int.%(q + 1) then begin
      y.n_row.%(j + nd_ph) <- h + 1;
      emit_port sim inst i y.p_int.%(q + 1) y.p_int.%(q + 2) y.p_int.%(q + 3)
        y.p_flts s (oget y.p_objs s);
      drain_pipe sim inst i true
    end
    else progressed
  end
  else progressed

(* Memory responses (FIFO per node).  Tile assembly parks its float in
   the simulator's flat scratch, so nothing is boxed on the way to the
   ports. *)
let rec drain_mem (sim : t) (inst : instance) (i : int) (progressed : bool)
    : bool =
  let y = inst.i_lay in
  let j = nd_row inst i in
  let h = y.n_row.%(j + nd_mh) in
  if y.n_row.%(j + nd_mt) - h > 0 then begin
    let s = mem_pos inst i h in
    let a = y.m_acc.(s) in
    let live = a != dummy_access in
    if (not live) || a.Memsys.a_done then begin
      let nd = y.y_g.(i) in
      let is_load =
        match nd.kind with G.Load _ | G.Tload _ -> true | _ -> false
      in
      let data = G.load_data and ack = G.mem_done nd in
      let space =
        if is_load then port_space inst i data && port_space inst i ack
        else port_space inst i ack
      in
      if space then begin
        y.n_row.%(j + nd_mh) <- h + 1;
        if live && not is_load then begin
          let iv = y.m_inv.(s) in
          if iv.iv_stores > 0 then iv.iv_stores <- iv.iv_stores - 1
        end;
        (match nd.kind, live with
        | (G.Load _ | G.Tload _), false ->
          (* gated: poison data, ack false *)
          emit_port sim inst i data F.tpoison 0 f0 0 F.no_obj;
          emit_port sim inst i ack F.tfalse 0 f0 0 F.no_obj
        | G.Load _, true ->
          emit_port sim inst i data a.Memsys.a_tags.(0) a.Memsys.a_nums.(0)
            a.Memsys.a_flts 0 a.Memsys.a_objs.(0);
          emit_port sim inst i ack F.ttrue 0 f0 0 F.no_obj
        | G.Tload _, true ->
          let v = Memsys.tile_value a in
          let sc = sim.sc in
          sc.Exec.rflt.(0) <- F.flt_of v;
          emit_port sim inst i data (F.tag_of v) (F.num_of v) sc.Exec.rflt 0
            (F.obj_of v);
          emit_port sim inst i ack F.ttrue 0 f0 0 F.no_obj
        | (G.Store _ | G.Tstore _), false ->
          emit_port sim inst i ack F.tfalse 0 f0 0 F.no_obj
        | (G.Store _ | G.Tstore _), true ->
          emit_port sim inst i ack F.ttrue 0 f0 0 F.no_obj
        | _ -> assert false);
        (* Recycle the access: banks still draining a write-buffered
           store keep it as an orphan and return it on completion. *)
        if live then begin
          if a.Memsys.a_pending <= 0 then pool_access inst i a
          else a.Memsys.a_orphan <- true
        end;
        drain_mem sim inst i true
      end
      else progressed
    end
    else progressed
  end
  else progressed

let rec ports_free (inst : instance) (i : int) (p : int) (k : int) : bool =
  p >= k || (port_space inst i p && ports_free inst i (p + 1) k)

(* Call/spawn responses in wave order. *)
let rec drain_resp (sim : t) (inst : instance) (i : int) (progressed : bool)
    : bool =
  let y = inst.i_lay in
  let j = nd_row inst i + nd_resp in
  let wave = y.n_row.%(j) in
  if resp_ready inst i wave then begin
    let s = ring_pos inst i wave in
    let w = s * y.y_rwid in
    let k = Int.min y.y_rw.(i) (Array.length y.y_out.(i)) in
    if ports_free inst i 0 k then begin
      y.r_wave.(s) <- -1;
      y.n_row.%(j) <- wave + 1;
      for p = 0 to k - 1 do
        emit_port sim inst i p y.r_tags.(w + p) y.r_nums.(w + p) y.r_flts
          (w + p) y.r_objs.(w + p)
      done;
      drain_resp sim inst i true
    end
    else progressed
  end
  else progressed

(* A sync of wave [w] may only complete once every spawn of the task
   has issued wave [w]'s spawns — otherwise it could observe a
   transiently-zero child count before the children were even
   created. *)
let rec spawns_issued_from (inst : instance) (wave : int) (i : int) : bool =
  i >= inst.i_lay.y_nn
  || ((match kind_of inst i with
      | G.SpawnChild _ -> inst.i_lay.n_row.%(nd_row inst i + nd_fired) > wave
      | _ -> true)
     && spawns_issued_from inst wave (i + 1))

(* Sync completions, in wave order. *)
let rec drain_sync (sim : t) (inst : instance) (i : int) (progressed : bool)
    : bool =
  let y = inst.i_lay in
  let j = nd_row inst i in
  let wave = y.n_row.%(j + nd_resp) in
  if y.n_row.%(j + nd_fired) - wave > 0 then begin
    let s = ring_pos inst i wave in
    let iv = y.r_inv.(s) in
    (* A stale entry (its invocation completed and was reused while
       the emission was backpressured) behaves like the completed
       invocation it referenced: zero live children. *)
    let children_ok =
      iv.iv_gen <> y.r_gen.(s) || iv.iv_eff_ctx.live_children = 0
    in
    if spawns_issued_from inst wave 0 && children_ok && port_space inst i 0
    then begin
      y.n_row.%(j + nd_resp) <- wave + 1;
      sim.ctrs.Ctr.syncs <- sim.ctrs.Ctr.syncs + 1;
      emit_port sim inst i 0 F.ttrue 0 f0 0 F.no_obj;
      drain_sync sim inst i true
    end
    else progressed
  end
  else progressed

(* A node emits through its pipeline ring, memory window or reply ring,
   whichever it owns. *)
let try_emit (sim : t) (inst : instance) (i : int) : bool =
  let y = inst.i_lay in
  if y.y_pb.(i) >= 0 then begin
    let progressed = drain_pipe sim inst i false in
    (* A new ring head wakes the node on its due cycle; an unchanged
       head already has its wake. *)
    (if progressed then
       let j = nd_row inst i in
       let h = y.n_row.%(j + nd_ph) in
       if y.n_row.%(j + nd_pt) - h > 0 then
         let ready = y.p_int.%(pipe_pos inst i h * 4) in
         if ready > sim.now then at sim ready inst i 1);
    progressed
  end
  else if y.y_mb.(i) >= 0 then drain_mem sim inst i false
  else
    match kind_of inst i with
    | G.CallChild _ | G.SpawnChild _ -> drain_resp sim inst i false
    | G.SyncWait -> drain_sync sim inst i false
    | _ -> false

(* ------------------------------------------------------------------ *)
(* The main loop                                                        *)

(* Instance worklists drain in place.  [itake] sorts the queued range
   into sweep order and returns its end; instances queued while it
   drains append behind it, and [idone] moves the head past what was
   drained.  The drained prefix is reclaimed once it fills half the
   array, so draining itself moves no entry. *)
let itake (l : ilist) : int =
  let h = l.l_h in
  if h > 0 && 2 * h >= Array.length l.l_v then begin
    for i = 0 to l.l_n - h - 1 do
      set_inst l.l_v i l.l_v.(h + i)
    done;
    l.l_n <- l.l_n - h;
    l.l_h <- 0
  end;
  sort_insts l.l_v l.l_h l.l_n;
  l.l_n

let idone (l : ilist) (h : int) : unit =
  if h = l.l_n then begin
    l.l_h <- 0;
    l.l_n <- 0
  end
  else l.l_h <- h

let ipending (l : ilist) : bool = l.l_n > l.l_h

(* Flip a double-buffered wake set: returns the offset of the half to
   drain; wakes from here on land in the other half. *)
let take_half (inst : instance) (par : int) : int = inst.i_nw - par

(* Fire the nodes of a taken half in graph order (its bits, lowest
   first), clearing it as it goes; [any] accumulates whether something
   fired.  Wakes that could not matter were never made, so every bit
   is attempted.  Top-level and tail-recursive: nothing here
   allocates. *)
let rec fire_bits (sim : t) (inst : instance) (base : int) (w : int)
    (any : bool) : bool =
  if w = 0 then any
  else begin
    let b = w land -w in
    sim.woken <- sim.woken + 1;
    let f = fire_node sim inst (base + bit_index b) in
    fire_bits sim inst base (w lxor b) (any || f)
  end

let rec fire_words (sim : t) (inst : instance) (off : int) (k : int)
    (any : bool) : bool =
  if k >= inst.i_nw then any
  else begin
    let w = inst.i_fset.(off + k) in
    if w = 0 then fire_words sim inst off (k + 1) any
    else begin
      inst.i_fset.(off + k) <- 0;
      fire_words sim inst off (k + 1) (fire_bits sim inst (k lsl 5) w any)
    end
  end

(* Drain [inst]'s fire set: fire every woken node of a live instance,
   drop the set of a retired one. *)
let fire_inst (sim : t) (inst : instance) : bool =
  let off = inst.i_fpar in
  inst.i_fpar <- take_half inst off;
  if inst.live then fire_words sim inst off 0 false
  else begin
    Array.fill inst.i_fset off inst.i_nw 0;
    false
  end

(* Dynamic-task flavor: at most [tiles] contexts issue datapath work
   per cycle, with the remaining slot count threaded through the
   recursion (a [ref] here would allocate every cycle).  Returns where
   the tiles ran out: the contexts from there on stay woken for the
   next cycle. *)
let rec fire_dyn (sim : t) (l : ilist) (k : int) (ni : int) (slots : int) :
    int =
  if k >= ni then ni
  else begin
    let inst = l.l_v.(k) in
    if inst.live && slots = 0 then k
    else begin
      inst.i_qfire <- false;
      let f = fire_inst sim inst in
      fire_dyn sim l (k + 1) ni (if f then slots - 1 else slots)
    end
  end

(* Keep the live contexts of [l_v.(k .. i)] queued, packed against
   index [w] (in place, so no store, unless one retired).  A retired
   context leaves the list now, wake set and all: this cycle's dispatch
   may rebirth it and queue it afresh.  Returns the new head. *)
let rec keep_live (sim : t) (l : ilist) (k : int) (i : int) (w : int) : int =
  if i < k then w
  else begin
    let inst = l.l_v.(i) in
    if inst.live then begin
      set_inst l.l_v (w - 1) inst;
      keep_live sim l k (i - 1) (w - 1)
    end
    else begin
      inst.i_qfire <- false;
      ignore (fire_inst sim inst);
      keep_live sim l k (i - 1) w
    end
  end

(* Phase 3 for one task, instances in sweep order.  A task is busy in
   a cycle if any of its nodes fired (the utilization count).  Like
   every phase body below, returns whether work is still queued. *)
let fire_task (sim : t) (trt : task_rt) : bool =
  let l = trt.tf in
  let ni = itake l in
  let fires = sim.fires in
  let h =
    if trt.tdynamic then
      keep_live sim l (fire_dyn sim l l.l_h ni trt.tk.tiles) (ni - 1) ni
    else begin
      for k = l.l_h to ni - 1 do
        let inst = l.l_v.(k) in
        inst.i_qfire <- false;
        ignore (fire_inst sim inst)
      done;
      ni
    end
  in
  if sim.fires > fires then trt.tbusy <- trt.tbusy + 1;
  idone l h;
  ipending l

let rec emit_bits (sim : t) (inst : instance) (base : int) (w : int) : unit =
  if w <> 0 then begin
    let b = w land -w in
    let i = base + bit_index b in
    if try_emit sim inst i then begin
      sim.last_activity <- sim.now;
      (* Freed pipeline/memory slots may unblock the node's next
         firing, unless that attempt would change nothing; drained
         state feeds the completion check. *)
      if futile inst i (sim.now + 1) then
        inst.i_lay.n_row.%(nd_row inst i + nd_skip) <- sim.now
      else wake_fire sim inst i;
      wake_complete sim inst
    end;
    emit_bits sim inst base (w lxor b)
  end

(* Phase 4 for one task: emission is instance-local. *)
let emit_task (sim : t) (trt : task_rt) : bool =
  let l = trt.te in
  let ni = itake l in
  for k = l.l_h to ni - 1 do
    let inst = l.l_v.(k) in
    inst.i_qemit <- false;
    let off = inst.i_epar in
    inst.i_epar <- take_half inst off;
    for j = 0 to inst.i_nw - 1 do
      let w = inst.i_eset.(off + j) in
      if w <> 0 then begin
        inst.i_eset.(off + j) <- 0;
        if inst.live then emit_bits sim inst (j lsl 5) w
      end
    done
  done;
  idone l ni;
  ipending l

(* Phase 2 for one task: each woken instance forwards up to the
   junction width of queued sub-requests to the memory structures. *)
let junction_task (sim : t) (trt : task_rt) : bool =
  let l = trt.tj in
  let ni = itake l in
  let w = sim.junction_width.(trt.tk.tid) in
  for k = l.l_h to ni - 1 do
    let inst = l.l_v.(k) in
    inst.i_qjunction <- false;
    if inst.live then begin
      for _ = 1 to w do
        if inst.ij_tail - inst.ij_head > 0 then begin
          let s = inst.ij_head land (Array.length inst.ij_space - 1) in
          let space = inst.ij_space.(s) in
          let sr = inst.ij_sr.(s) in
          inst.ij_head <- inst.ij_head + 1;
          let rt = sim.ms.Memsys.space_of space in
          Memsys.enqueue sim.ms rt sr ~now:sim.now;
          sim.last_activity <- sim.now;
          wake_complete sim inst
        end
      done;
      if inst.ij_tail - inst.ij_head > 0 then wake_junction sim inst
    end
  done;
  idone l ni;
  ipending l

(* Phase 5: a child completing here can enable its parent's completion
   in the same cycle when the parent sits later in the sweep order —
   chase those wakes exactly as far as the dense sweep would have. *)
(* Partition tc[0, n) by i_ord > cursor: ready entries land in
   tc2[0..], later entries compact in place at tc[i - ready] (always
   at or before their origin, so in-place is safe).  Returns the ready
   count; the later count is n - ready. *)
let rec dc_partition (trt : task_rt) (cursor : int) (i : int) (n : int)
    (ready : int) : int =
  if i >= n then ready
  else begin
    let inst = trt.tc.l_v.(i) in
    if inst.i_ord > cursor then begin
      set_inst trt.tc2 ready inst;
      dc_partition trt cursor (i + 1) n (ready + 1)
    end
    else begin
      set_inst trt.tc.l_v (i - ready) inst;
      dc_partition trt cursor (i + 1) n ready
    end
  end

(* Run completions over the sorted ready prefix; returns the last
   i_ord visited (the new cursor). *)
let rec dc_run (sim : t) (trt : task_rt) (i : int) (nready : int)
    (cursor : int) : int =
  if i >= nready then cursor
  else begin
    let inst = trt.tc2.(i) in
    inst.i_qcomplete <- false;
    if inst.live then try_complete sim trt inst;
    dc_run sim trt (i + 1) nready inst.i_ord
  end

let rec drain_complete (sim : t) (trt : task_rt) (cursor : int) : unit =
  let n = trt.tc.l_n in
  if n > 0 then begin
    if Array.length trt.tc2 < n then
      trt.tc2 <- Array.make (max 8 (n * 2)) dummy_inst;
    let nready = dc_partition trt cursor 0 n 0 in
    if nready > 0 then begin
      trt.tc.l_n <- n - nready;
      sort_insts trt.tc2 0 nready;
      let c = dc_run sim trt 0 nready cursor in
      drain_complete sim trt c
    end
  end

let complete_task (sim : t) (trt : task_rt) : bool =
  drain_complete sim trt min_int;
  ipending trt.tc

(* Round-robin dispatch across a static task's tiles: a pipelined
   instance would otherwise accept every invocation and starve its
   replicas.  Returns whether anything was popped off the queue. *)
let rec rr_dispatch (sim : t) (trt : task_rt) (k : int) (n : int)
    (popped : bool) : bool =
  if k >= n then popped
  else begin
    let inst = trt.tinst.((trt.trr + k) mod n) in
    if tq_len trt > 0 && can_accept inst then begin
      inject sim trt inst (tq_pop sim trt);
      trt.trr <- (trt.trr + k + 1) mod n;
      rr_dispatch sim trt (k + 1) n true
    end
    else rr_dispatch sim trt (k + 1) n popped
  end

(* Phase 6 for one task with queued invocations. *)
let dispatch_task (sim : t) (trt : task_rt) : bool =
  if trt.tdynamic then
    (* every queued message becomes a fresh context *)
    while tq_len trt > 0 do
      let s = tq_pop sim trt in
      let inst = acquire_instance sim trt in
      inst.i_ord <- trt.t_next_ord;
      (* newest contexts first, so recursion runs depth-first *)
      trt.t_next_ord <- trt.t_next_ord - 1;
      inject sim trt inst s
    done
  else begin
    let popped = rr_dispatch sim trt 0 trt.tinst_n false in
    (* Queue space freed: parked callers can try again. *)
    if popped && trt.tw_n > 0 then begin
      let nw = trt.tw_n in
      trt.tw_n <- 0;
      for i = 0 to nw - 1 do
        let wi = trt.tw_inst.(i) and wn = trt.tw_node.(i) in
        wi.i_lay.n_row.%(nd_row wi wn + nd_wait) <- 0;
        wake_fire sim wi wn
      done
    end
  end;
  tq_len trt > 0

(* Phase 7: commit staged channel writes, dirty channels only (each
   transfer is independent, so their order does not matter). *)
let commit (sim : t) : unit =
  for i = 0 to sim.ld_n - 1 do
    let inst = sim.insts.(sim.ld_i.(i)) in
    let k = sim.ld_k.(i) in
    let y = inst.i_lay in
    let r = y.c_row and o = ch_row inst k in
    let dn = r.%(o + ch_dst) in
    if r.%(o + ch_md) = r.%(o + ch_hd) then begin
      let j = nd_row inst dn + nd_miss in
      y.n_row.%(j) <- y.n_row.%(j) - 1
    end;
    r.%(o + ch_md) <- r.%(o + ch_tl);
    (* Fresh tokens: the consumer may be able to fire.  Nothing changes
       a label, an operand or a busy time between here and the next
       fire phase, so the futility check is already final; of several
       commits into one consumer, the last sees them all. *)
    if not (futile inst dn (sim.now + 1)) then wake_fire sim inst dn
  done;
  sim.ld_n <- 0

(* Run [phase] on every task whose bit is set in [act], in id order,
   clearing the bits of tasks left with nothing queued.  The set is
   read live: a task woken ahead of the cursor runs in this sweep, one
   woken behind it waits for the next cycle — exactly what a loop over
   every task, testing each as it reaches it, would do. *)
let rec sweep (sim : t) (act : int array) (phase : t -> task_rt -> bool)
    (from : int) : unit =
  let tid = next_bit act from in
  if tid >= 0 then begin
    if not (phase sim sim.tasks.(tid)) then bit_clear act tid;
    sweep sim act phase (tid + 1)
  end

let step (sim : t) : unit =
  let now = sim.now in
  (* 0. occupancy samples for the tracer's histograms (the counter
     bank integrates occupancy as depths move) *)
  (match sim.tr with
  | Some tr ->
    Array.iter
      (fun trt ->
        Tr.occ_sample tr ~c:now (Ctr.Ktask trt.tk.tid) (tq_len trt))
      sim.tasks;
    List.iter
      (fun (sid, depth) -> Tr.occ_sample tr ~c:now (Ctr.Kstruct sid) depth)
      (Memsys.occupancy sim.ms)
  | None -> ());
  drain_timed sim;
  (* 1. memory structures (completions notify waiting nodes) *)
  Memsys.step sim.ms ~now;
  (* 2. junction arbitration, only where sub-requests are queued *)
  sweep sim sim.act_j junction_task 0;
  (* 3. fire phase over woken nodes *)
  sweep sim sim.act_f fire_task 0;
  (* 4. emission phase over woken nodes *)
  sweep sim sim.act_e emit_task 0;
  (* 5. completions, only on instances whose state moved *)
  sweep sim sim.act_c complete_task 0;
  (* 6. dispatch *)
  sweep sim sim.act_q dispatch_task 0;
  (* 7. commit staged channel writes *)
  commit sim;
  sim.now <- now + 1

(** Pre-load cycles for DMA into scratchpads (8 words per cycle). *)
let dma_cycles (c : G.circuit) : int =
  let scratch_words =
    List.fold_left
      (fun acc (g : Muir_ir.Program.global) ->
        match List.assoc_opt g.gspace c.space_map with
        | Some sid -> (
          match (G.structure c sid).shape with
          | G.Scratchpad _ -> acc + g.gsize
          | G.Cache _ -> acc)
        | None -> acc)
      0 c.prog.globals
  in
  (scratch_words + 7) / 8

(* Readiness oracle accessors: node [i] of [inst], its readiness
   count, and the committed tokens on each of its inputs ([None] for
   an immediate). *)
let node_count (inst : instance) : int = inst.i_lay.y_nn
let node_nid (inst : instance) (i : int) : int = inst.i_lay.y_g.(i).nid

let node_miss (inst : instance) (i : int) : int =
  inst.i_lay.n_row.%(nd_row inst i + nd_miss)

let committed (inst : instance) (k : int) : int =
  let o = ch_row inst k in
  inst.i_lay.c_row.%(o + ch_md) - inst.i_lay.c_row.%(o + ch_hd)

let input_tokens (inst : instance) (i : int) : int option array =
  let y = inst.i_lay in
  Array.init (n_inputs y i) (fun p ->
      let k = y.y_ich.(y.y_inb.(i) + p) in
      if k < 0 then None else Some (committed inst k))

let diagnose (sim : t) : string =
  let buf = Buffer.create 256 in
  Array.iter
    (fun trt ->
      Buffer.add_string buf
        (Fmt.str "task %s: %d queued, %d invocations, %d instances@."
           trt.tk.tname (tq_len trt) trt.tinvocations trt.tinst_n);
      for k = 0 to trt.tinst_n - 1 do
        let inst = trt.tinst.(k) in
        if inst.live && inst.i_count > 0 then begin
          Buffer.add_string buf
            (Fmt.str "task %s#%d: %d inflight, lo=%d next=%d@." trt.tk.tname
               inst.iid inst.i_count inst.i_lo inst.next_wave);
          let y = inst.i_lay in
          for i = 0 to y.y_nn - 1 do
            let r = y.n_row and j = nd_row inst i and nd = y.y_g.(i) in
            let ins =
              Array.map
                (function None -> "imm" | Some n -> string_of_int n)
                (input_tokens inst i)
            in
            let outs =
              Array.map
                (fun fs ->
                  String.concat "/"
                    (Array.to_list
                       (Array.map
                          (fun k ->
                            Fmt.str "%d(%d)" (committed inst k)
                              y.c_row.%(ch_row inst k + ch_cap))
                          fs)))
                y.y_out.(i)
            in
            let resp = r.%(j + nd_resp) and fired = r.%(j + nd_fired) in
            let sync = nd.kind = G.SyncWait in
            Buffer.add_string buf
              (Fmt.str
                 "  n%d %s fired=%d pipe=%d mem=%d next=%d sync=%d in=[%s] out=[%s]@."
                 nd.nid (G.kind_to_string nd.kind) fired
                 (r.%(j + nd_pt) - r.%(j + nd_ph))
                 (r.%(j + nd_mt) - r.%(j + nd_mh))
                 (if sync then 0 else resp)
                 (if sync then fired - resp else 0)
                 (String.concat ";" (Array.to_list ins))
                 (String.concat ";" (Array.to_list outs)))
          done
        end
      done)
    sim.tasks;
  Buffer.contents buf

(** Queue the root task's invocation, with [args] after the implicit
    true predicate, before cycle 0 (so occupancy counts it from cycle
    0).  [run] calls it on a fresh simulator; stepping [sim] afterwards
    runs the program. *)
let start (sim : t) (args : token list) : unit =
  let root = sim.tasks.(sim.circ.root) in
  let root_ctx =
    { live_children = 0; cx_owner = None; cx_w_inst = [||]; cx_w_node = [||];
      cx_nw = 0 }
  in
  let s =
    tq_push sim root ~at:0 ~ctx:root_ctx ~rkind:0 ~rinst:dummy_inst
      ~rnode:0 ~rwave:0
  in
  for i = 0 to root.t_arity - 1 do
    match List.nth_opt (T.VBool true :: args) i with
    | Some v ->
      tq_arg root s i (F.tag_of v) (F.num_of v) [| F.flt_of v |] 0 (F.obj_of v)
    | None -> tq_arg root s i F.tpoison 0 f0 0 F.no_obj
  done

(** Run the circuit's root task with [args] to completion.  Returns
    the root's return value, the final memory, statistics, and the
    always-on performance-counter bank (exact fires, per-cause stall
    cycles and occupancy integrals — maintained whether or not a
    tracer is attached).  [?tracer] additionally streams timeline
    events into a [Muir_trace.Trace.t]; tracing is strictly passive,
    so cycle counts, stats and counters are identical with it on or
    off.  [?jobs] is accepted for compatibility and ignored: the
    kernel runs on one lane. *)
let run ?tracer ?(args = []) ?(max_cycles = 20_000_000)
    ?jobs:(_ : int option) (c : G.circuit) : result =
  let t_start = Unix.gettimeofday () in
  let sim = create ?tracer c in
  start sim args;
  (* GC evidence: sample the minor-heap allocation counter every 4096
     cycles; the steady-state rate is measured over the second half of
     the run, past the construction warm-up. *)
  let gc0 = Gc.quick_stat () in
  let samples = ref (Array.make 64 0.0) in
  let nsamples = ref 0 in
  let push_sample () =
    if !nsamples = Array.length !samples then begin
      let nv = Array.make (!nsamples * 2) 0.0 in
      Array.blit !samples 0 nv 0 !nsamples;
      samples := nv
    end;
    !samples.(!nsamples) <- Gc.minor_words ();
    incr nsamples
  in
  push_sample ();
  while (not sim.root_done) && sim.now < max_cycles do
    if sim.now - sim.last_activity > deadlock_window then
      raise
        (Deadlock
           (Fmt.str "no progress for %d cycles at cycle %d:@.%s"
              deadlock_window sim.now (diagnose sim)));
    step sim;
    if sim.now land 4095 = 0 then push_sample ()
  done;
  if not sim.root_done then raise (Cycle_limit max_cycles);
  (* Close the books: integrate occupancy up to the last cycle and fold
     every still-live instance's accounting into the whole-run counter
     bank. *)
  sim.ctrs.Ctr.final_cycle <- sim.now;
  Ctr.occ_flush_all sim.ctrs sim.now;
  (match sim.tr with
  | Some tr -> tr.Tr.final_cycle <- sim.now
  | None -> ());
  Array.iter
    (fun trt ->
      for k = 0 to trt.tinst_n - 1 do
        let inst = trt.tinst.(k) in
        if inst.live then
          for i = 0 to inst.i_lay.y_nn - 1 do
            fold_node inst i sim.now
          done
      done)
    sim.tasks;
  let gc1 = Gc.quick_stat () in
  let gc_rate =
    if !nsamples >= 4 then begin
      let lo = !nsamples / 2 in
      let dw = !samples.(!nsamples - 1) -. !samples.(lo) in
      let dc = float_of_int ((!nsamples - 1 - lo) * 4096) in
      if dc > 0.0 then dw /. dc else 0.0
    end
    else if sim.now > 0 then
      (Gc.minor_words () -. !samples.(0)) /. float_of_int sim.now
    else 0.0
  in
  let value = sim.root_val in
  let dma = dma_cycles c in
  let wall = Unix.gettimeofday () -. t_start in
  (* Derived rates must stay printable on degenerate runs: a zero-cycle
     program would otherwise put nan/inf into profiles and machine-read
     reports. *)
  let finite f = if Float.is_finite f then f else 0.0 in
  let per_cycle total =
    if sim.now = 0 then 0.0
    else finite (float_of_int total /. float_of_int sim.now)
  in
  { value;
    memory = sim.ms.Memsys.mem;
    counters = sim.ctrs;
    stats =
      { cycles = sim.now; dma_cycles = dma; total_cycles = sim.now + dma;
        fires = sim.fires;
        invocations =
          Array.to_list
            (Array.map (fun trt -> (trt.tk.tname, trt.tinvocations)) sim.tasks);
        utilization =
          Array.to_list
            (Array.map
               (fun trt ->
                 ( trt.tk.tname,
                   if sim.now = 0 then 0.0
                   else float_of_int trt.tbusy /. float_of_int sim.now ))
               sim.tasks);
        mem = Memsys.stats sim.ms;
        mem_requests = sim.ms.Memsys.total_requests;
        wall_seconds = wall;
        woken_per_cycle = per_cycle sim.woken;
        gc_minor_words_per_cycle = finite gc_rate;
        gc_major_collections =
          gc1.Gc.major_collections - gc0.Gc.major_collections } }
