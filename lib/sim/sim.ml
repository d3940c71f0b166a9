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
    downstream channel, a pipeline/memory/reorder-buffer entry
    matured, a child task's queue drained, a spawned child joined, or
    an invocation was injected.  Nodes sleeping on latency wake from a
    ring-buffer timing wheel keyed by absolute cycle.  Completion
    checks and junction arbitration likewise run only on instances
    whose state moved, and only channels with staged writes are
    committed.

    {2 Data layout}

    Everything on the steady-state path is preallocated
    struct-of-arrays indexed by dense ids: channels are flat
    ring-buffer columns in the {!Muir_ir.Flat} token encoding, node
    pipeline/memory/reorder/sync state are fixed rings, invocations
    and task-queue entries are pooled flat rows, wake sets are
    double-buffered bitsets, the timing wheel holds plain ints, and
    retired dynamic instances return to a per-task pool and are reborn
    in place.  The steady-state fire path allocates {e zero} words on
    the OCaml minor heap (asserted by the bench gate and by
    [test/test_sim.ml]) and skips every
    pointer store that would not change the stored value, since each
    one costs a write-barrier call.  Per-cycle work scales with
    activity: each phase visits only tasks with queued work, idle
    memory structures cost one depth check, and queue occupancy is
    integrated when a depth moves rather than sampled.

    The wake discipline is {e precise}: a node is attempted only when
    the attempt can fire it, move a token, or change its stall label.
    - Operand readiness is a per-node count of wired inputs with no
      committed token ([nr_miss]), moved only by commits and pops.
    - A commit into an empty channel wakes the consumer unless, at
      the next fire phase, it still misses an operand, is past its
      initiation interval and already holds the operand-wait label
      ({!futile}).  Every other fire wake gets the same check when its
      wake set drains, and is skipped if it holds.
    - A pop wakes the producer's emission only if the channel was
      full.  A node that emits through its pipeline ring alone is
      woken for emission only for a new ring head: now if it is due,
      else by one timing-wheel entry at its due cycle.  Live-outs emit
      nothing; memory, call/spawn and sync nodes wake on every firing.

    Why this is exact.  An emission attempt carries no stall label, so
    one that cannot move a token may be dropped.  A fire attempt that
    fails on a missing operand while the node already holds the
    operand-wait label relabels it with that same label: every
    accounting sum stays the same and the tracer sees no event.
    Between the commit of cycle c and the fire phase of c+1 no label,
    operand or busy time changes, so a commit can decide for the next
    fire phase; other wakes are checked at drain time because the
    completion phase can relabel a node idle after its emission woke
    it, and the attempt then relabels it operand-wait.  Under-waking
    never happens: every condition a blocked node waits on has a wake
    source.  Within a cycle the woken nodes are drained in the same
    deterministic order the dense sweep used — tasks in id order,
    instances in queue order, nodes in graph order (the order a wake
    set yields by construction) — so the kernel is bit-for-bit
    cycle-accurate against the dense reference: [total_cycles],
    [fires] and all utilization stats are unchanged on every workload
    (enforced by the golden constants in [test/test_sim.ml]).

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

(* Channels are flat ring buffers of token columns.  Three monotonic
   cursors: [fhead] (next pop), [fmid] (end of committed tokens),
   [ftail] (end of staged writes).  Writes land between [fmid] and
   [ftail] and become visible at the end-of-cycle commit
   ([fmid <- ftail]).  The endpoints drive the wake sets and the
   consumer's readiness count: a commit into an empty channel wakes
   the consumer ([f_di], [f_dn]) for fire, a pop from a full one wakes
   the producer ([f_si], [f_sn]) for emission.  Every edge channel has
   both; [dummy_inst] and [dummy_node] fill unused edge-id slots,
   which are never pushed, committed or popped. *)
type fifo = {
  fcap : int;                          (** architectural capacity *)
  fmask : int;                         (** physical ring size - 1 *)
  ftags : int array;
  fnums : int array;
  fflts : float array;
  fobjs : token array;
  mutable fhead : int;
  mutable fmid : int;
  mutable ftail : int;
  mutable f_dirty : bool;              (** queued on the commit list *)
  mutable f_si : instance;             (** producer *)
  mutable f_sn : node_rt;
  mutable f_di : instance;             (** consumer *)
  mutable f_dn : node_rt;
}

and sync_ctx = {
  mutable live_children : int;
  mutable cx_owner : instance option;
      (** instance whose invocation owns this context: re-checked for
          completion when a child joins *)
  mutable cx_w_inst : instance array;  (** parked SyncWait nodes *)
  mutable cx_w_node : node_rt array;
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
  mutable iv_rnode : node_rt;
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

and node_rt = {
  nr : G.node;
  nr_cost : Cost.t;
  mutable nr_idx : int;           (** position in [inodes] (drain order) *)
  nr_in : fifo option array;      (** [None] = immediate slot *)
  im_tags : int array;            (** immediates, flat columns *)
  im_nums : int array;
  im_flts : float array;
  im_objs : token array;
  nr_out : fifo array array;      (** per out port: fan-out channels *)
  nr_words : int;                 (** words per access (memory nodes) *)
  nr_space : int;                 (** address space (memory nodes) *)
  nr_mem : bool;                  (** load/store: emits through [nm_*] *)
  nr_pipe : bool;                 (** emits only through the [np_*] ring *)
  mutable nr_miss : int;          (** wired inputs holding no committed
                                      token: 0 = every operand present *)
  mutable nr_fired : int;         (** firings so far (the wave counter) *)
  mutable nr_busy_until : int;
  (* pipeline ring: [Cost.pipe_slots] slots of (ready cycle, out port,
     token) *)
  np_ready : int array;
  np_port : int array;
  np_tags : int array;
  np_nums : int array;
  np_flts : float array;
  np_objs : token array;
  mutable np_head : int;
  mutable np_tail : int;
  (* outstanding-request window: ring of [max_outstanding] entries *)
  nm_live : bool array;           (** entry carries an access *)
  nm_store : bool array;
  nm_hasiv : bool array;          (** store attribution attached *)
  nm_acc : Memsys.access array;
  nm_inv : invocation array;
  mutable nm_head : int;
  mutable nm_tail : int;
  mutable na_pool : Memsys.access array;  (** reusable accesses *)
  mutable na_n : int;
  (* call/spawn reorder buffer: wave-indexed flat rows, width [rs_w] *)
  rs_w : int;
  mutable rs_wave : int array;    (** -1 = empty *)
  mutable rs_tags : int array;
  mutable rs_nums : int array;
  mutable rs_flts : float array;
  mutable rs_objs : token array;
  mutable nr_next_resp : int;
  (* pending sync waits: FIFO ring of (invocation, wave) *)
  mutable ns_inv : invocation array;
  mutable ns_wave : int array;
  mutable ns_gen : int array;   (** [iv_gen] at push time *)
  mutable ns_head : int;
  mutable ns_tail : int;
  mutable nr_wait_child : bool;   (** parked on a full child task queue *)
}

and instance = {
  it : G.task;
  iid : int;
  mutable i_ord : int;            (** drain order within the task *)
  mutable i_slot : int;           (** position in the task's [tinst] *)
  inodes : node_rt array;
  inode_by_id : node_rt option array;  (** node id -> runtime (ids are
                                           sparse after fusion) *)
  ififos : fifo array;            (** indexed by edge id *)
  (* inflight window: wave-indexed table, pow2, -1 = empty slot *)
  mutable iw_wave : int array;
  mutable iw_iv : invocation array;
  mutable i_lo : int;             (** lowest possibly-inflight wave *)
  mutable i_count : int;          (** inflight invocations *)
  mutable next_wave : int;
  mutable live : bool;            (** dynamic instances are retired *)
  mutable i_retired : int;        (** cycle of retirement (pool guard) *)
  idynamic : bool;
  ipipe_loop : bool;
      (** {!Cost.pipelined}: invocations wave-pipeline through the
          ring *)
  iprime : int array;             (** resting token count per edge *)
  (* initial tokens, one row per token, for allocation-free rebirth *)
  i_init_eid : int array;
  i_init_tags : int array;
  i_init_nums : int array;
  i_init_flts : float array;
  i_init_objs : token array;
  (* junction queue: ring of (space, sub-request) *)
  mutable ij_space : int array;
  mutable ij_sr : Memsys.subreq array;
  mutable ij_head : int;
  mutable ij_tail : int;
  isyncs : node_rt array;         (** SyncWait nodes, for join wakes *)
  (* wake sets: bitsets over [nr_idx], 32 nodes per word, each double
     buffered in one array — words [i_*par, i_*par + i_nw) collect
     wakes, the other half is the set being drained *)
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
  i_sc : Exec.sc;                 (** flat ALU scratch *)
  i_prof : Ctr.Prof.iprof;         (** always-on stall accounting *)
  i_nctr : Ctr.node_ctr array;
  (** whole-run counter rows, parallel to [inodes] — resolved once at
      construction so retirement folds without hashing a key *)
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
  (* pending invocations: flat ring, row-major args + reply routing *)
  mutable tq_tags : int array;
  mutable tq_nums : int array;
  mutable tq_flts : float array;
  mutable tq_objs : token array;
  mutable tq_ctx : sync_ctx array;
  mutable tq_rkind : int array;
  mutable tq_rinst : instance array;
  mutable tq_rnode : node_rt array;
  mutable tq_rwave : int array;
  mutable tq_rctx : sync_ctx array;
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
  mutable tw_node : node_rt array;
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
  cycles_per_sec : float;         (** simulated cycles per wall second *)
  woken_per_cycle : float;
      (** fire attempts per cycle: woken nodes that reach [fire_node]
          (a woken node whose attempt would change nothing is skipped
          and not counted) *)
  live_nodes_per_cycle : float;   (** instantiated nodes per cycle (the
                                      dense sweep would attempt these) *)
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
  max_outstanding : int;
  wheel : wslot array;            (** [wheel_size] slots *)
  mutable insts : instance array; (** every instance, by [iid] *)
  mutable ld_v : fifo array;      (** channels with staged writes *)
  mutable ld_n : int;
  mutable woken : int;            (** total fire attempts, stats *)
  mutable live_nodes : int;       (** nodes across live instances *)
  mutable node_cycles : int;      (** Σ live_nodes per cycle, stats *)
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

let dummy_gnode : G.node =
  { nid = -1; kind = G.SyncWait; ins = [||]; nty = T.TFloat; label = "" }

let dummy_ctx : sync_ctx =
  { live_children = 0; cx_owner = None; cx_w_inst = [||]; cx_w_node = [||];
    cx_nw = 0 }

let dummy_node : node_rt =
  { nr = dummy_gnode; nr_cost = Cost.node_cost G.SyncWait; nr_idx = 0;
    nr_in = [||]; im_tags = [||]; im_nums = [||]; im_flts = [||];
    im_objs = [||]; nr_out = [||]; nr_words = 1; nr_space = 0;
    nr_mem = false; nr_pipe = false; nr_miss = 0; nr_fired = 0;
    nr_busy_until = 0; np_ready = [||]; np_port = [||]; np_tags = [||];
    np_nums = [||]; np_flts = [||]; np_objs = [||]; np_head = 0;
    np_tail = 0; nm_live = [||]; nm_store = [||]; nm_hasiv = [||];
    nm_acc = [||]; nm_inv = [||]; nm_head = 0; nm_tail = 0; na_pool = [||];
    na_n = 0; rs_w = 0; rs_wave = [||]; rs_tags = [||]; rs_nums = [||];
    rs_flts = [||]; rs_objs = [||]; nr_next_resp = 0; ns_inv = [||];
    ns_wave = [||]; ns_gen = [||]; ns_head = 0; ns_tail = 0;
    nr_wait_child = false }

let dummy_inst : instance =
  { it = dummy_task; iid = -1; i_ord = 0; i_slot = 0; inodes = [||];
    inode_by_id = [||]; ififos = [||]; iw_wave = [||]; iw_iv = [||];
    i_lo = 0; i_count = 0; next_wave = 0; live = false; i_retired = -1;
    idynamic = false; ipipe_loop = false; iprime = [||]; i_init_eid = [||];
    i_init_tags = [||]; i_init_nums = [||]; i_init_flts = [||];
    i_init_objs = [||]; ij_space = [||];
    ij_sr = [||]; ij_head = 0; ij_tail = 0; isyncs = [||]; i_nw = 0;
    i_fset = [||]; i_fpar = 0; i_eset = [||]; i_epar = 0; i_qfire = false;
    i_qemit = false; i_qcomplete = false; i_qjunction = false; ivp = [||];
    ivp_n = 0; i_nres = 0;
    i_sc = Exec.make_sc ~slots:1;
    i_prof = Ctr.Prof.make ~born:0 ~nnodes:0; i_nctr = [||] }

let dummy_inv : invocation =
  { iv_gen = 0; iv_wave = -1; iv_rkind = 0; iv_rinst = dummy_inst;
    iv_rnode = dummy_node; iv_rwave = 0; iv_rctx = dummy_ctx;
    iv_eff_ctx = dummy_ctx; iv_own = None; iv_lo_tags = [||];
    iv_lo_nums = [||]; iv_lo_flts = [||]; iv_lo_objs = [||];
    iv_stores = 0 }

let dummy_access : Memsys.access = Memsys.make_access ~words:1 ~notify:ignore

(* ------------------------------------------------------------------ *)
(* Wake plumbing                                                        *)

(* Add node [n] to the pending half of a wake set; true if it was not
   there yet. *)
let[@inline] wake_bit (set : int array) (par : int) (n : node_rt) : bool =
  let k = par + (n.nr_idx lsr 5) in
  let w = set.(k) in
  let b = 1 lsl (n.nr_idx land 31) in
  if w land b <> 0 then false
  else begin
    set.(k) <- w lor b;
    true
  end

let wake_fire (sim : t) (inst : instance) (n : node_rt) : unit =
  if inst.live && wake_bit inst.i_fset inst.i_fpar n && not inst.i_qfire
  then begin
    inst.i_qfire <- true;
    ipush sim.tasks.(inst.it.tid).tf inst
  end

let wake_emit (sim : t) (inst : instance) (n : node_rt) : unit =
  if inst.live && wake_bit inst.i_eset inst.i_epar n && not inst.i_qemit
  then begin
    inst.i_qemit <- true;
    ipush sim.tasks.(inst.it.tid).te inst
  end

let wake_complete (sim : t) (inst : instance) : unit =
  if inst.live && not inst.i_qcomplete then begin
    inst.i_qcomplete <- true;
    ipush sim.tasks.(inst.it.tid).tc inst
  end

let wake_junction (sim : t) (inst : instance) : unit =
  if inst.live && not inst.i_qjunction then begin
    inst.i_qjunction <- true;
    ipush sim.tasks.(inst.it.tid).tj inst
  end

(** Schedule a wake at absolute cycle [c] (clamped to the future);
    [kind] 0 = fire, 1 = emit. *)
let at (sim : t) (c : int) (inst : instance) (n : node_rt) (kind : int) :
    unit =
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
  s.wn.(m) <- n.nr_idx;
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
    let nd = inst.inodes.(s.wn.(i)) in
    if s.wk.(i) = 0 then wake_fire sim inst nd else wake_emit sim inst nd;
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

let fifo_space (f : fifo) = f.ftail - f.fhead < f.fcap

let fifo_push (sim : t) (f : fifo) (tag : int) (num : int)
    (flts : float array) (fi : int)
    (obj : token) : unit =
  let i = f.ftail land f.fmask in
  f.ftags.(i) <- tag;
  f.fnums.(i) <- num;
  f.fflts.(i) <- flts.(fi);
  set_obj f.fobjs i obj;
  f.ftail <- f.ftail + 1;
  if not f.f_dirty then begin
    f.f_dirty <- true;
    let n = sim.ld_n in
    if n = Array.length sim.ld_v then sim.ld_v <- grow sim.ld_v f;
    if sim.ld_v.(n) != f then sim.ld_v.(n) <- f;
    sim.ld_n <- n + 1
  end

(** Stage input [i] only; false if empty. *)
let stage_one (n : node_rt) (sc : Exec.sc) (i : int) : bool =
  match n.nr_in.(i) with
  | None ->
    sc.Exec.stags.(i) <- n.im_tags.(i);
    sc.Exec.snums.(i) <- n.im_nums.(i);
    sc.Exec.sflts.(i) <- n.im_flts.(i);
    set_obj sc.Exec.sobjs i n.im_objs.(i);
    true
  | Some f ->
    if f.fmid - f.fhead = 0 then false
    else begin
      let j = f.fhead land f.fmask in
      sc.Exec.stags.(i) <- f.ftags.(j);
      sc.Exec.snums.(i) <- f.fnums.(j);
      sc.Exec.sflts.(i) <- f.fflts.(j);
      set_obj sc.Exec.sobjs i f.fobjs.(j);
      true
    end

(** Stage every input of [n] into rows [0 ..] of [sc]; a node fires
    only with every operand present ([nr_miss = 0]). *)
let stage_inputs (n : node_rt) (sc : Exec.sc) : unit =
  for i = 0 to Array.length n.nr_in - 1 do
    ignore (stage_one n sc i)
  done

let input_ready (n : node_rt) (i : int) : bool =
  match n.nr_in.(i) with None -> true | Some f -> f.fmid - f.fhead > 0

(* A mu's data input picked by its control token (which must be
   present). *)
let mu_sel (n : node_rt) : int =
  let c = G.mu_ctl in
  match n.nr_in.(c) with
  | None ->
    G.mu_select (Exec.truthy_flat n.im_tags.(c) n.im_nums.(c) n.im_objs.(c))
  | Some f ->
    let j = f.fhead land f.fmask in
    G.mu_select (Exec.truthy_flat f.ftags.(j) f.fnums.(j) f.fobjs.(j))

(** Does [n] hold every operand its next firing consumes?  A mu needs
    its control token and the data input that token selects; every
    other node needs all wired inputs. *)
let can_start (n : node_rt) : bool =
  match n.nr.kind with
  | G.MergeLoop -> input_ready n G.mu_ctl && input_ready n (mu_sel n)
  | _ -> n.nr_miss = 0

let operand_wait = Ctr.cause_index Ctr.Operand

(** Would a fire attempt of [n] at cycle [c] change nothing?  True
    when [n] is past its initiation interval, still misses an operand
    and is already labelled operand-wait: the attempt would fail on
    the operand and relabel the node with the label it holds, which
    leaves every accounting sum the same and emits no tracer event. *)
let futile (inst : instance) (n : node_rt) (c : int) : bool =
  n.nr_busy_until <= c
  && inst.i_prof.Ctr.Prof.nprofs.(n.nr_idx).Ctr.Prof.st = operand_wait
  && not (can_start n)

(* Wired inputs whose channel holds no committed token. *)
let count_miss (ins : fifo option array) : int =
  Array.fold_left
    (fun k -> function Some f when f.fmid = f.fhead -> k + 1 | _ -> k)
    0 ins

let pop_in (sim : t) (n : node_rt) (i : int) : unit =
  match n.nr_in.(i) with
  | None -> ()
  | Some f ->
    let full = not (fifo_space f) in
    f.fhead <- f.fhead + 1;
    if f.fhead = f.fmid then n.nr_miss <- n.nr_miss + 1;
    (* Space freed in a full channel: the producer's blocked emission
       may proceed.  A channel that had space blocked no port. *)
    if full then wake_emit sim f.f_si f.f_sn

let pop_all (sim : t) (n : node_rt) : unit =
  for i = 0 to Array.length n.nr_in - 1 do
    pop_in sim n i
  done

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)

let imm_token = function
  | G.Simm v -> v
  | G.Swire -> T.VPoison

let rec pow2_at_least (n : int) (p : int) = if p >= n then p else
  pow2_at_least n (p * 2)

let new_fifo (cap : int) (ninit : int) : fifo =
  let phys = pow2_at_least (max cap (max ninit 1)) 1 in
  { fcap = cap; fmask = phys - 1; ftags = Array.make phys F.tabsent;
    fnums = Array.make phys 0; fflts = Array.make phys 0.0;
    fobjs = Array.make phys F.no_obj; fhead = 0; fmid = 0; ftail = 0;
    f_dirty = false; f_si = dummy_inst; f_sn = dummy_node;
    f_di = dummy_inst; f_dn = dummy_node }

let new_instance (sim : t) (task : G.task) ~(dynamic : bool) : instance =
  let nedges = task.next_eid in
  let fifos = Array.init nedges (fun _ -> new_fifo 1 0) in
  List.iter
    (fun (e : G.edge) ->
      let f = new_fifo e.capacity (List.length e.initial) in
      List.iter
        (fun v ->
          let i = f.ftail land f.fmask in
          f.ftags.(i) <- F.tag_of v;
          f.fnums.(i) <- F.num_of v;
          f.fflts.(i) <- F.flt_of v;
          f.fobjs.(i) <- F.obj_of v;
          f.ftail <- f.ftail + 1;
          f.fmid <- f.ftail)
        e.initial;
      fifos.(e.eid) <- f)
    task.edges;
  let max_nid = task.next_nid in
  let in_map = Hashtbl.create 64 and out_map = Hashtbl.create 64 in
  List.iter
    (fun (e : G.edge) ->
      Hashtbl.replace in_map e.dst e.eid;
      Hashtbl.replace out_map e.src
        (e.eid
        :: (match Hashtbl.find_opt out_map e.src with
           | Some l -> l
           | None -> [])))
    task.edges;
  let mo = sim.max_outstanding in
  let nodes =
    Array.of_list
      (List.map
         (fun (n : G.node) ->
           let arity = Array.length n.ins in
           let nr_in =
             Array.init arity (fun i ->
                 match n.ins.(i) with
                 | G.Simm _ -> None
                 | G.Swire -> (
                   match Hashtbl.find_opt in_map (n.nid, i) with
                   | Some eid -> Some fifos.(eid)
                   | None -> None (* validated: shouldn't happen *)))
           in
           let imms = Array.map imm_token n.ins in
           let outs = G.out_arity n.kind ~call_res:16 in
           let nr_out =
             Array.init (max outs 1) (fun p ->
                 match Hashtbl.find_opt out_map (n.nid, p) with
                 | Some eids ->
                   Array.of_list (List.map (fun e -> fifos.(e)) eids)
                 | None -> [||])
           in
           let is_mem = G.is_memory_node n in
           let nr_words =
             match G.tile_shape n.kind with
             | Some s -> T.shape_words s
             | None -> 1
           in
           let nr_space = Option.value (G.node_space n) ~default:0 in
           let rs_w =
             match n.kind with
             | G.CallChild tid ->
               List.length sim.tasks.(tid).tk.res_tys
             | G.SpawnChild _ -> 1
             | _ -> 0
           in
           let nr_pipe =
             match n.kind with
             | G.Compute _ | G.Fused _ | G.Merge _ | G.Steer
             | G.FusedSteer _ | G.MergeLoop | G.Tcompute _ -> true
             | _ -> false
           in
           { nr = n; nr_cost = Cost.node_cost n.kind; nr_idx = 0; nr_in;
             im_tags = Array.map F.tag_of imms;
             im_nums = Array.map F.num_of imms;
             im_flts = Array.map F.flt_of imms;
             im_objs = Array.map F.obj_of imms; nr_out; nr_words; nr_space;
             nr_mem = is_mem; nr_pipe; nr_miss = count_miss nr_in;
             nr_fired = 0; nr_busy_until = 0;
             np_ready = Array.make Cost.pipe_slots 0;
             np_port = Array.make Cost.pipe_slots 0;
             np_tags = Array.make Cost.pipe_slots F.tabsent;
             np_nums = Array.make Cost.pipe_slots 0;
             np_flts = Array.make Cost.pipe_slots 0.0;
             np_objs = Array.make Cost.pipe_slots F.no_obj; np_head = 0;
             np_tail = 0;
             nm_live = (if is_mem then Array.make mo false else [||]);
             nm_store = (if is_mem then Array.make mo false else [||]);
             nm_hasiv = (if is_mem then Array.make mo false else [||]);
             nm_acc = (if is_mem then Array.make mo dummy_access else [||]);
             nm_inv = (if is_mem then Array.make mo dummy_inv else [||]);
             nm_head = 0; nm_tail = 0; na_pool = [||]; na_n = 0; rs_w;
             rs_wave = [||]; rs_tags = [||]; rs_nums = [||]; rs_flts = [||];
             rs_objs = [||]; nr_next_resp = 0; ns_inv = [||]; ns_wave = [||];
             ns_gen = [||]; ns_head = 0; ns_tail = 0; nr_wait_child = false })
         task.nodes)
  in
  Array.iteri (fun i n -> n.nr_idx <- i) nodes;
  let nnodes = Array.length nodes in
  let iid = sim.next_iid in
  sim.next_iid <- iid + 1;
  let iprime = Array.make nedges 0 in
  List.iter
    (fun (e : G.edge) -> iprime.(e.eid) <- List.length e.initial)
    task.edges;
  let ninit =
    List.fold_left
      (fun acc (e : G.edge) -> acc + List.length e.initial)
      0 task.edges
  in
  let i_init_eid = Array.make ninit 0 in
  let i_init_tags = Array.make ninit F.tabsent in
  let i_init_nums = Array.make ninit 0 in
  let i_init_flts = Array.make ninit 0.0 in
  let i_init_objs = Array.make ninit F.no_obj in
  let k = ref 0 in
  List.iter
    (fun (e : G.edge) ->
      List.iter
        (fun v ->
          i_init_eid.(!k) <- e.eid;
          i_init_tags.(!k) <- F.tag_of v;
          i_init_nums.(!k) <- F.num_of v;
          i_init_flts.(!k) <- F.flt_of v;
          i_init_objs.(!k) <- F.obj_of v;
          incr k)
        e.initial)
    task.edges;
  let ipipe_loop = Cost.pipelined task in
  let inode_by_id = Array.make (max max_nid 1) None in
  Array.iter (fun nr -> inode_by_id.(nr.nr.G.nid) <- Some nr) nodes;
  let isyncs =
    Array.of_list
      (List.filter
         (fun (n : node_rt) ->
           match n.nr.kind with G.SyncWait -> true | _ -> false)
         (Array.to_list nodes))
  in
  let max_arity =
    Array.fold_left
      (fun acc (n : node_rt) -> max acc (Array.length n.nr_in))
      1 nodes
  in
  let nw = (nnodes + 31) lsr 5 in
  let inst =
    { it = task; iid; i_ord = 0; i_slot = 0; inodes = nodes; inode_by_id;
      ififos = fifos; iw_wave = [||]; iw_iv = [||]; i_lo = 0; i_count = 0;
      next_wave = 0; live = true; i_retired = -1; idynamic = dynamic;
      ipipe_loop; iprime; i_init_eid; i_init_tags; i_init_nums;
      i_init_flts; i_init_objs; ij_space = [||]; ij_sr = [||]; ij_head = 0;
      ij_tail = 0; isyncs; i_nw = nw; i_fset = Array.make (2 * nw) 0;
      i_fpar = 0; i_eset = Array.make (2 * nw) 0; i_epar = 0;
      i_qfire = false; i_qemit = false; i_qcomplete = false;
      i_qjunction = false; ivp = [||]; ivp_n = 0;
      i_nres = List.length task.res_tys;
      i_sc = Exec.make_sc ~slots:((max_arity * 2) + 4);
      i_prof = Ctr.Prof.make ~born:sim.now ~nnodes;
      i_nctr =
        Array.map
          (fun (n : node_rt) ->
            Ctr.node_ctr sim.ctrs ~task:task.tid ~node:n.nr.G.nid)
          nodes }
  in
  (* Endpoints so channel events can wake producer/consumer (validated:
     both exist). *)
  List.iter
    (fun (e : G.edge) ->
      let f = fifos.(e.eid) in
      f.f_di <- inst;
      f.f_dn <- Option.get inode_by_id.(fst e.dst);
      f.f_si <- inst;
      f.f_sn <- Option.get inode_by_id.(fst e.src))
    task.edges;
  sim.insts <- vpush sim.insts iid inst;
  sim.live_nodes <- sim.live_nodes + nnodes;
  (* First cycle behaves like a dense sweep over the fresh instance:
     initial loop-control tokens can enable nodes with no other wake
     source. *)
  Array.iter (fun n -> wake_fire sim inst n) nodes;
  inst

(* Rebirth a pooled dynamic instance in place: channels back to their
   primed state, node state cleared, profile reset — no allocation on
   this path beyond worklist growth. *)
let reset_instance (sim : t) (inst : instance) : unit =
  for e = 0 to Array.length inst.ififos - 1 do
    let f = inst.ififos.(e) in
    f.fhead <- 0;
    f.fmid <- 0;
    f.ftail <- 0
  done;
  for k = 0 to Array.length inst.i_init_eid - 1 do
    let f = inst.ififos.(inst.i_init_eid.(k)) in
    let i = f.ftail land f.fmask in
    f.ftags.(i) <- inst.i_init_tags.(k);
    f.fnums.(i) <- inst.i_init_nums.(k);
    f.fflts.(i) <- inst.i_init_flts.(k);
    f.fobjs.(i) <- inst.i_init_objs.(k);
    f.ftail <- f.ftail + 1;
    f.fmid <- f.ftail
  done;
  for i = 0 to Array.length inst.inodes - 1 do
    let n = inst.inodes.(i) in
    n.nr_miss <- count_miss n.nr_in;
    n.nr_fired <- 0;
    n.nr_busy_until <- 0;
    n.np_head <- 0;
    n.np_tail <- 0;
    n.nm_head <- 0;
    n.nm_tail <- 0;
    if Array.length n.rs_wave > 0 then
      Array.fill n.rs_wave 0 (Array.length n.rs_wave) (-1);
    n.nr_next_resp <- 0;
    n.ns_head <- 0;
    n.ns_tail <- 0;
    n.nr_wait_child <- false
  done;
  if Array.length inst.iw_wave > 0 then
    Array.fill inst.iw_wave 0 (Array.length inst.iw_wave) (-1);
  inst.i_lo <- 0;
  inst.i_count <- 0;
  inst.next_wave <- 0;
  inst.ij_head <- 0;
  inst.ij_tail <- 0;
  Array.fill inst.i_fset 0 (2 * inst.i_nw) 0;
  Array.fill inst.i_eset 0 (2 * inst.i_nw) 0;
  inst.i_qfire <- false;
  inst.i_qemit <- false;
  inst.i_qcomplete <- false;
  inst.i_qjunction <- false;
  Ctr.Prof.reset inst.i_prof ~born:sim.now;
  inst.live <- true;
  sim.live_nodes <- sim.live_nodes + Array.length inst.inodes;
  for i = 0 to Array.length inst.inodes - 1 do
    wake_fire sim inst inst.inodes.(i)
  done

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
  else begin
    (* Fresh instances register on the task's roster (reborn pooled
       ones already sit there); the roster feeds the final counter
       fold and the deadlock dump. *)
    let inst = new_instance sim trt.tk ~dynamic:true in
    inst.i_slot <- trt.tinst_n;
    trt.tinst <- vpush trt.tinst trt.tinst_n inst;
    trt.tinst_n <- trt.tinst_n + 1;
    inst
  end

let create ?tracer (c : G.circuit) : t =
  Muir_core.Validate.check_exn c;
  let ctrs = Ctr.create () in
  let mem = Muir_ir.Memory.create c.prog in
  let ms = Memsys.create ~ctrs c mem in
  let n = List.length c.tasks in
  let dyn = (Cost.instancing c).on_demand in
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
             tq_tags = [||]; tq_nums = [||]; tq_flts = [||];
             tq_objs = [||]; tq_ctx = [||]; tq_rkind = [||];
             tq_rinst = [||]; tq_rnode = [||]; tq_rwave = [||];
             tq_rctx = [||]; tq_head = 0; tq_tail = 0; tinst = [||];
             tinst_n = 0; tinvocations = 0; tbusy = 0; trr = 0;
             t_next_ord = -1; tf = ilist t.tid act_f; te = ilist t.tid act_e;
             tc = ilist t.tid act_c; tc2 = [||]; tj = ilist t.tid act_j;
             tw_inst = [||]; tw_node = [||]; tw_n = 0; tp_v = [||];
             tp_head = 0; tp_tail = 0 })
         c.tasks)
  in
  let sim =
    { circ = c; ms; tasks; now = 0; fires = 0; last_activity = 0;
      next_iid = 0; root_done = false; root_val = T.VBool true;
      junction_width = Array.init n (fun tid -> G.junction_width c tid);
      max_outstanding = 8;
      wheel =
        Array.init wheel_size (fun _ ->
            { wi = [||]; wn = [||]; wc = [||]; wk = [||]; w_n = 0 });
      insts = [||]; ld_v = [||]; ld_n = 0; woken = 0; live_nodes = 0;
      node_cycles = 0; tr = tracer; ctrs;
      otasks = Array.init n (fun tid -> Ctr.occ_ref ctrs (Ctr.Ktask tid));
      act_j; act_f; act_e; act_c; act_q }
  in
  (* Static instances for non-dynamic tasks: one per tile. *)
  Array.iter
    (fun trt ->
      if not trt.tdynamic then
        for k = 0 to trt.tk.tiles - 1 do
          let inst = new_instance sim trt.tk ~dynamic:false in
          inst.i_ord <- k;
          inst.i_slot <- k;
          trt.tinst <- vpush trt.tinst trt.tinst_n inst;
          trt.tinst_n <- trt.tinst_n + 1
        done)
    tasks;
  sim

(* ------------------------------------------------------------------ *)
(* Invocation plumbing                                                  *)

(* Wave table: open-addressed by [wave land (cap-1)] with the wave as
   its own tag.  Live waves occupy a dense window, so a table at least
   as large as the window never collides; grow (rarely) on collision. *)
let rec wv_grow (inst : instance) (ncap : int) : unit =
  let nw = Array.make ncap (-1) in
  let ni = Array.make ncap dummy_inv in
  let ok = ref true in
  Array.iteri
    (fun k w ->
      if w >= 0 && !ok then begin
        let s = w land (ncap - 1) in
        if nw.(s) >= 0 then ok := false
        else begin
          nw.(s) <- w;
          ni.(s) <- inst.iw_iv.(k)
        end
      end)
    inst.iw_wave;
  if !ok then begin
    inst.iw_wave <- nw;
    inst.iw_iv <- ni
  end
  else wv_grow inst (ncap * 2)

let rec wv_insert (inst : instance) (wave : int) (iv : invocation) : unit =
  let cap = Array.length inst.iw_wave in
  if cap = 0 then begin
    inst.iw_wave <- Array.make 8 (-1);
    inst.iw_iv <- Array.make 8 dummy_inv;
    wv_insert inst wave iv
  end
  else begin
    let s = wave land (cap - 1) in
    if inst.iw_wave.(s) < 0 then begin
      inst.iw_wave.(s) <- wave;
      inst.iw_iv.(s) <- iv
    end
    else begin
      wv_grow inst (cap * 2);
      wv_insert inst wave iv
    end
  end

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

(** The invocation a firing of node [n] belongs to.  In function tasks
    every node fires exactly once per wave; in loop tasks only one
    invocation is in flight, so attribution is exact in both cases. *)
let attr_inv (inst : instance) (n : node_rt) : invocation =
  match inst.it.tkind with
  | G.Tfunc -> find_inv inst n.nr_fired
  | G.Tloop _ ->
    let w = oldest_wave inst in
    if w >= 0 then wv_get inst w
    else
      raise
        (Deadlock
           (Fmt.str "loop task %s fired with no inflight invocation"
              inst.it.tname))

(** Can this instance accept another invocation right now? *)
let rec ca_fans (fs : fifo array) (k : int) : bool =
  k >= Array.length fs || (fifo_space fs.(k) && ca_fans fs (k + 1))

let rec ca_ports (outs : fifo array array) (p : int) : bool =
  p >= Array.length outs || (ca_fans outs.(p) 0 && ca_ports outs (p + 1))

let rec ca_nodes (inst : instance) (i : int) : bool =
  i >= Array.length inst.inodes
  || ((match inst.inodes.(i).nr.kind with
      | G.LiveIn _ -> ca_ports inst.inodes.(i).nr_out 0
      | _ -> true)
     && ca_nodes inst (i + 1))

let can_accept (inst : instance) : bool =
  (match inst.it.tkind with
  | G.Tloop _ -> inst.ipipe_loop || inst.i_count = 0
  | G.Tfunc -> true)
  && ca_nodes inst 0

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
    iv_rnode = dummy_node;
    iv_rwave = 0; iv_rctx = dummy_ctx; iv_eff_ctx = dummy_ctx; iv_own = own;
    iv_lo_tags = Array.make nres F.tabsent;
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

(* Response reorder table: same open-addressing discipline as the wave
   table, with [rs_w] token columns per row. *)
let rec resp_grow (n : node_rt) (ncap : int) : unit =
  let w = max n.rs_w 1 in
  let nw = Array.make ncap (-1) in
  let nt = Array.make (ncap * w) F.tabsent in
  let nn = Array.make (ncap * w) 0 in
  let nf = Array.make (ncap * w) 0.0 in
  let no = Array.make (ncap * w) F.no_obj in
  let ok = ref true in
  Array.iteri
    (fun k wv ->
      if wv >= 0 && !ok then begin
        let s = wv land (ncap - 1) in
        if nw.(s) >= 0 then ok := false
        else begin
          nw.(s) <- wv;
          Array.blit n.rs_tags (k * w) nt (s * w) w;
          Array.blit n.rs_nums (k * w) nn (s * w) w;
          Array.blit n.rs_flts (k * w) nf (s * w) w;
          Array.blit n.rs_objs (k * w) no (s * w) w
        end
      end)
    n.rs_wave;
  if !ok then begin
    n.rs_wave <- nw;
    n.rs_tags <- nt;
    n.rs_nums <- nn;
    n.rs_flts <- nf;
    n.rs_objs <- no
  end
  else resp_grow n (ncap * 2)

(** Claim the row for [wave]; the caller fills the token columns at
    [slot * max rs_w 1]. *)
let rec resp_insert (n : node_rt) (wave : int) : int =
  let cap = Array.length n.rs_wave in
  if cap = 0 then begin
    let w = max n.rs_w 1 in
    n.rs_wave <- Array.make 4 (-1);
    n.rs_tags <- Array.make (4 * w) F.tabsent;
    n.rs_nums <- Array.make (4 * w) 0;
    n.rs_flts <- Array.make (4 * w) 0.0;
    n.rs_objs <- Array.make (4 * w) F.no_obj;
    resp_insert n wave
  end
  else begin
    let s = wave land (cap - 1) in
    if n.rs_wave.(s) < 0 || n.rs_wave.(s) = wave then begin
      n.rs_wave.(s) <- wave;
      s
    end
    else begin
      resp_grow n (cap * 2);
      resp_insert n wave
    end
  end

let resp_ready (n : node_rt) (wave : int) : bool =
  let cap = Array.length n.rs_wave in
  cap > 0 && n.rs_wave.(wave land (cap - 1)) = wave

(* Sync-completion ring of (invocation, wave) entries. *)
let sync_push (n : node_rt) (iv : invocation) (wave : int) : unit =
  let cap = Array.length n.ns_wave in
  let m = n.ns_tail - n.ns_head in
  if m = cap then begin
    let ncap = max 4 (cap * 2) in
    let ni = Array.make ncap dummy_inv in
    let nv = Array.make ncap 0 in
    let ng = Array.make ncap 0 in
    for i = 0 to m - 1 do
      let s = (n.ns_head + i) land (cap - 1) in
      ni.(i) <- n.ns_inv.(s);
      nv.(i) <- n.ns_wave.(s);
      ng.(i) <- n.ns_gen.(s)
    done;
    n.ns_inv <- ni;
    n.ns_wave <- nv;
    n.ns_gen <- ng;
    n.ns_head <- 0;
    n.ns_tail <- m
  end;
  let s = n.ns_tail land (Array.length n.ns_wave - 1) in
  if n.ns_inv.(s) != iv then n.ns_inv.(s) <- iv;
  n.ns_wave.(s) <- wave;
  n.ns_gen.(s) <- iv.iv_gen;
  n.ns_tail <- n.ns_tail + 1

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

(* Park a sync node on its join context (dedup by node identity). *)
let rec cx_parked_from (c : sync_ctx) (n : node_rt) (i : int) : bool =
  i < c.cx_nw && (c.cx_w_node.(i) == n || cx_parked_from c n (i + 1))

let cx_park (c : sync_ctx) (inst : instance) (n : node_rt) : unit =
  if not (cx_parked_from c n 0) then begin
    c.cx_w_inst <- vpush c.cx_w_inst c.cx_nw inst;
    c.cx_w_node <- vpush c.cx_w_node c.cx_nw n;
    c.cx_nw <- c.cx_nw + 1
  end

(* Task invocation queue: a ring of flat rows, [t_arity] argument
   columns plus the reply-routing fields. *)
let tq_len (trt : task_rt) : int = trt.tq_tail - trt.tq_head

let tq_grow (trt : task_rt) : unit =
  let cap = Array.length trt.tq_rkind in
  let ncap = max 8 (cap * 2) in
  let ar = max trt.t_arity 1 in
  let n = trt.tq_tail - trt.tq_head in
  let ntags = Array.make (ncap * ar) F.tabsent in
  let nnums = Array.make (ncap * ar) 0 in
  let nflts = Array.make (ncap * ar) 0.0 in
  let nobjs = Array.make (ncap * ar) F.no_obj in
  let nctx = Array.make ncap dummy_ctx in
  let nrk = Array.make ncap 0 in
  let nri = Array.make ncap dummy_inst in
  let nrn = Array.make ncap dummy_node in
  let nrw = Array.make ncap 0 in
  let nrc = Array.make ncap dummy_ctx in
  for i = 0 to n - 1 do
    let s = (trt.tq_head + i) land (cap - 1) in
    Array.blit trt.tq_tags (s * ar) ntags (i * ar) ar;
    Array.blit trt.tq_nums (s * ar) nnums (i * ar) ar;
    Array.blit trt.tq_flts (s * ar) nflts (i * ar) ar;
    Array.blit trt.tq_objs (s * ar) nobjs (i * ar) ar;
    nctx.(i) <- trt.tq_ctx.(s);
    nrk.(i) <- trt.tq_rkind.(s);
    nri.(i) <- trt.tq_rinst.(s);
    nrn.(i) <- trt.tq_rnode.(s);
    nrw.(i) <- trt.tq_rwave.(s);
    nrc.(i) <- trt.tq_rctx.(s)
  done;
  trt.tq_tags <- ntags;
  trt.tq_nums <- nnums;
  trt.tq_flts <- nflts;
  trt.tq_objs <- nobjs;
  trt.tq_ctx <- nctx;
  trt.tq_rkind <- nrk;
  trt.tq_rinst <- nri;
  trt.tq_rnode <- nrn;
  trt.tq_rwave <- nrw;
  trt.tq_rctx <- nrc;
  trt.tq_head <- 0;
  trt.tq_tail <- n

(** Reserve the tail row, which the queue-occupancy integral first
    sees at cycle [at]; the caller fills the argument columns at
    [slot * max t_arity 1]. *)
let tq_push (sim : t) (trt : task_rt) ~(at : int) ~(ctx : sync_ctx)
    ~(rkind : int) ~(rinst : instance) ~(rnode : node_rt) ~(rwave : int)
    ~(rctx : sync_ctx) : int =
  if trt.tq_tail - trt.tq_head = Array.length trt.tq_rkind then tq_grow trt;
  let s = trt.tq_tail land (Array.length trt.tq_rkind - 1) in
  if trt.tq_ctx.(s) != ctx then trt.tq_ctx.(s) <- ctx;
  trt.tq_rkind.(s) <- rkind;
  set_inst trt.tq_rinst s rinst;
  if trt.tq_rnode.(s) != rnode then trt.tq_rnode.(s) <- rnode;
  trt.tq_rwave.(s) <- rwave;
  if trt.tq_rctx.(s) != rctx then trt.tq_rctx.(s) <- rctx;
  trt.tq_tail <- trt.tq_tail + 1;
  Ctr.occ_move sim.otasks.(trt.tk.tid) 1 ~at;
  bit_set sim.act_q trt.tk.tid;
  s

(** Pop the head row during the current cycle. *)
let tq_pop (sim : t) (trt : task_rt) : int =
  let s = trt.tq_head land (Array.length trt.tq_rkind - 1) in
  trt.tq_head <- trt.tq_head + 1;
  Ctr.occ_move sim.otasks.(trt.tk.tid) (-1) ~at:(sim.now + 1);
  s

let inject (sim : t) (trt : task_rt) (inst : instance) (s : int) : unit =
  let wave = inst.next_wave in
  inst.next_wave <- wave + 1;
  trt.tinvocations <- trt.tinvocations + 1;
  let iv = acquire_inv inst in
  iv.iv_wave <- wave;
  iv.iv_rkind <- trt.tq_rkind.(s);
  if iv.iv_rinst != trt.tq_rinst.(s) then iv.iv_rinst <- trt.tq_rinst.(s);
  if iv.iv_rnode != trt.tq_rnode.(s) then iv.iv_rnode <- trt.tq_rnode.(s);
  iv.iv_rwave <- trt.tq_rwave.(s);
  if iv.iv_rctx != trt.tq_rctx.(s) then iv.iv_rctx <- trt.tq_rctx.(s);
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
  let base = s * Int.max trt.t_arity 1 in
  for j = 0 to Array.length inst.inodes - 1 do
    let n = inst.inodes.(j) in
    match n.nr.kind with
    | G.LiveIn i ->
      let fs = n.nr_out.(0) in
      if i < trt.t_arity then
        for k = 0 to Array.length fs - 1 do
          fifo_push sim fs.(k) trt.tq_tags.(base + i)
            trt.tq_nums.(base + i) trt.tq_flts
            (base + i)
            trt.tq_objs.(base + i)
        done
      else
        for k = 0 to Array.length fs - 1 do
          fifo_push sim fs.(k) F.tpoison 0 f0 0 F.no_obj
        done
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
       else T.VBool true)
  | 1 ->
    let n = iv.iv_rnode in
    let w = Int.max n.rs_w 1 in
    let s = resp_insert n iv.iv_rwave in
    let k = Int.min n.rs_w inst.i_nres in
    Array.blit iv.iv_lo_tags 0 n.rs_tags (s * w) k;
    Array.blit iv.iv_lo_nums 0 n.rs_nums (s * w) k;
    Array.blit iv.iv_lo_flts 0 n.rs_flts (s * w) k;
    Array.blit iv.iv_lo_objs 0 n.rs_objs (s * w) k;
    wake_emit sim iv.iv_rinst n
  | _ ->
    ctx_dec sim iv.iv_rctx;
    let n = iv.iv_rnode in
    let s = resp_insert n iv.iv_rwave in
    if inst.i_nres > 1 then begin
      n.rs_tags.(s) <- iv.iv_lo_tags.(1);
      n.rs_nums.(s) <- iv.iv_lo_nums.(1);
      n.rs_flts.(s) <- iv.iv_lo_flts.(1);
      set_obj n.rs_objs s iv.iv_lo_objs.(1)
    end
    else begin
      n.rs_tags.(s) <- F.ttrue;
      n.rs_nums.(s) <- 0;
      n.rs_flts.(s) <- 0.0;
      set_obj n.rs_objs s F.no_obj
    end;
    wake_emit sim iv.iv_rinst n

(** A function-task wave is fully fired once every node (live-ins are
    driven by injection) has consumed it — this is exact because every
    node fires exactly once per wave in a predicated hyperblock. *)
let rec wave_fully_fired_from (inst : instance) (wave : int) (i : int) :
    bool =
  i >= Array.length inst.inodes
  || (let n = inst.inodes.(i) in
      (match n.nr.kind with
      | G.LiveIn _ -> true
      | G.CallChild _ | G.SpawnChild _ ->
        (* The child invoked for this wave must itself have completed
           (its response emitted in order): a void call's side effects
           otherwise race ahead of the caller's completion. *)
        n.nr_fired > wave && n.nr_next_resp > wave
      | _ -> n.nr_fired > wave)
      && wave_fully_fired_from inst wave (i + 1))

let wave_fully_fired (inst : instance) (wave : int) : bool =
  wave_fully_fired_from inst wave 0

(** A loop instance is quiescent when every token at rest sits on a
    primed edge (loop-control or ordering back edges) at its resting
    count and no node holds in-flight work.  Mid-invocation the
    carried values necessarily occupy other channels or pipelines, so
    quiescence is equivalent to "the invocation has fully drained". *)
let rec no_live_resp (n : node_rt) (k : int) : bool =
  k >= Array.length n.rs_wave
  || (n.rs_wave.(k) < 0 && no_live_resp n (k + 1))

let rec lq_nodes_from (inst : instance) (i : int) : bool =
  i >= Array.length inst.inodes
  || (let n = inst.inodes.(i) in
      n.np_tail - n.np_head = 0
      && n.nm_tail - n.nm_head = 0
      && no_live_resp n 0
      && n.ns_tail - n.ns_head = 0
      && (match n.nr.kind with
         | G.CallChild _ | G.SpawnChild _ -> n.nr_next_resp = n.nr_fired
         | _ -> true)
      && lq_nodes_from inst (i + 1))

let rec lq_fifos_from (inst : instance) (e : int) : bool =
  e >= Array.length inst.ififos
  || (let f = inst.ififos.(e) in
      f.ftail - f.fhead = inst.iprime.(e) && lq_fifos_from inst (e + 1))

let loop_quiescent (inst : instance) : bool =
  lq_nodes_from inst 0
  && inst.ij_tail - inst.ij_head = 0
  && lq_fifos_from inst 0

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
      let ip = inst.i_prof in
      for i = 0 to Array.length ip.nprofs - 1 do
        ignore
          (Ctr.Prof.transition ip.nprofs.(i) (Ctr.cause_index Ctr.Idle)
             (sim.now + 1))
      done;
      if inst.idynamic then begin
        for i = 0 to Array.length ip.nprofs - 1 do
          Ctr.fold_into inst.i_nctr.(i)
            ~fires:inst.inodes.(i).nr_fired ~born:ip.born
            ~upto:(sim.now + 1)
            ip.nprofs.(i)
        done;
        inst.live <- false;
        inst.i_retired <- sim.now;
        sim.live_nodes <- sim.live_nodes - Array.length inst.inodes;
        pool_put trt inst
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Node firing (phase A)                                                *)

(* Return an access to its node's pool once nothing references it. *)
let pool_access (n : node_rt) (a : Memsys.access) : unit =
  let k = n.na_n in
  if k = Array.length n.na_pool then n.na_pool <- grow n.na_pool a;
  if n.na_pool.(k) != a then n.na_pool.(k) <- a;
  n.na_n <- k + 1

(* Push a result into the pipeline ring.  Callers check occupancy
   first. *)
(* The float rides as [flts.(fi)] rather than a bare [float]: a float
   argument to a non-inlined call is boxed at the boundary (2-3 minor
   words per token), while an array-to-array move stays unboxed. *)
let pipe_push (n : node_rt) (ready : int) (port : int) (tag : int)
    (num : int) (flts : float array) (fi : int) (obj : token) : unit =
  let s = n.np_tail land (Cost.pipe_slots - 1) in
  n.np_ready.(s) <- ready;
  n.np_port.(s) <- port;
  n.np_tags.(s) <- tag;
  n.np_nums.(s) <- num;
  n.np_flts.(s) <- flts.(fi);
  set_obj n.np_objs s obj;
  n.np_tail <- n.np_tail + 1

let zeros4 = Array.make 4 0.0

(** Attempt to fire node [n] of [inst]; true if it fired.  A failed
    attempt has no side effects beyond (re)subscribing the node to the
    event that can unblock it.  All operand staging goes through the
    instance's flat scratch [i_sc]; nothing here allocates. *)
let try_fire (sim : t) (inst : instance) (n : node_rt) : bool =
  let now = sim.now in
  if n.nr_busy_until > now then begin
    (* Sleeping on the initiation interval: retry when it expires. *)
    at sim n.nr_busy_until inst n 0;
    false
  end
  else
    match n.nr.kind with
    | G.LiveIn _ -> false (* driven by injection *)
    | G.MergeLoop ->
      (* Consume ctl, then the selected data input only. *)
      let sc = inst.i_sc in
      let c = G.mu_ctl in
      if not (stage_one n sc c) then false
      else begin
        let sel =
          G.mu_select
            (Exec.truthy_flat sc.Exec.stags.(c) sc.Exec.snums.(c)
               sc.Exec.sobjs.(c))
        in
        if not (stage_one n sc sel) then false
        else if n.np_tail - n.np_head >= Cost.pipe_slots then false
        else begin
          pop_in sim n c;
          pop_in sim n sel;
          pipe_push n (now + n.nr_cost.latency - 1) 0 sc.Exec.stags.(sel)
            sc.Exec.snums.(sel) sc.Exec.sflts sel sc.Exec.sobjs.(sel);
          n.nr_fired <- n.nr_fired + 1;
          true
        end
      end
    | _ ->
      if n.nr_miss > 0 then false
      else if n.np_tail - n.np_head >= Cost.pipe_slots && not n.nr_mem then
        false
      else begin
        match n.nr.kind with
        | G.Compute op ->
          let sc = inst.i_sc in
          stage_inputs n sc;
          pop_all sim n;
          Exec.compute_sc sc op 0 (Array.length n.nr_in);
          pipe_push n (now + n.nr_cost.latency - 1) 0 sc.Exec.rtag
            sc.Exec.rnum sc.Exec.rflt 0 sc.Exec.robj;
          n.nr_busy_until <- now + n.nr_cost.ii;
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.Fused ops ->
          let sc = inst.i_sc in
          stage_inputs n sc;
          pop_all sim n;
          Exec.fused_sc sc ops (Array.length n.nr_in);
          pipe_push n (now + n.nr_cost.latency - 1) 0 sc.Exec.rtag
            sc.Exec.rnum sc.Exec.rflt 0 sc.Exec.robj;
          n.nr_busy_until <- now + n.nr_cost.ii;
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.Merge k ->
          let sc = inst.i_sc in
          stage_inputs n sc;
          pop_all sim n;
          Exec.merge_sc sc k (Array.length n.nr_in);
          pipe_push n (now + n.nr_cost.latency - 1) 0 sc.Exec.rtag
            sc.Exec.rnum sc.Exec.rflt 0 sc.Exec.robj;
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.Steer ->
          let sc = inst.i_sc in
          stage_inputs n sc;
          pop_all sim n;
          let p = G.pred_port and d = G.steer_data in
          let port =
            G.steer_select
              (Exec.truthy_flat sc.Exec.stags.(p) sc.Exec.snums.(p)
                 sc.Exec.sobjs.(p))
          in
          pipe_push n (now + n.nr_cost.latency - 1) port sc.Exec.stags.(d)
            sc.Exec.snums.(d) sc.Exec.sflts d sc.Exec.sobjs.(d);
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.FusedSteer ops ->
          let sc = inst.i_sc in
          stage_inputs n sc;
          pop_all sim n;
          let p = G.pred_port and d = G.steer_data in
          let port =
            G.steer_select
              (Exec.truthy_flat sc.Exec.stags.(p) sc.Exec.snums.(p)
                 sc.Exec.sobjs.(p))
          in
          (* The chain's operands start at the data input: shift them
             down. *)
          let nops = Array.length n.nr_in - d in
          for i = 0 to nops - 1 do
            sc.Exec.stags.(i) <- sc.Exec.stags.(i + d);
            sc.Exec.snums.(i) <- sc.Exec.snums.(i + d);
            sc.Exec.sflts.(i) <- sc.Exec.sflts.(i + d);
            set_obj sc.Exec.sobjs i sc.Exec.sobjs.(i + d)
          done;
          Exec.fused_sc sc ops nops;
          pipe_push n (now + n.nr_cost.latency - 1) port sc.Exec.rtag
            sc.Exec.rnum sc.Exec.rflt 0 sc.Exec.robj;
          n.nr_busy_until <- now + n.nr_cost.ii;
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.Tcompute { top; _ } ->
          (* Tensor ops produce boxed tiles anyway; the slow path is
             fine here. *)
          let sc = inst.i_sc in
          stage_inputs n sc;
          pop_all sim n;
          let v = Exec.tensor top (Exec.slot_values sc 0 (Array.length n.nr_in)) in
          sc.Exec.rflt.(0) <- F.flt_of v;
          pipe_push n (now + n.nr_cost.latency - 1) 0 (F.tag_of v)
            (F.num_of v) sc.Exec.rflt 0 (F.obj_of v);
          n.nr_busy_until <- now + n.nr_cost.ii;
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.Load _ | G.Store _ | G.Tload _ | G.Tstore _ ->
          if n.nm_tail - n.nm_head >= sim.max_outstanding then false
          else begin
            let is_store =
              match n.nr.kind with
              | G.Store _ | G.Tstore _ -> true
              | _ -> false
            in
            (* Attribution: stores pin their invocation; loads only
               advance the oldest-wave cursor (the original never read
               a load's attribution). *)
            let iv = if is_store then attr_inv inst n else dummy_inv in
            if not is_store then ignore (oldest_wave inst);
            let sc = inst.i_sc in
            stage_inputs n sc;
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
            pop_all sim n;
            let s = n.nm_tail land (Array.length n.nm_live - 1) in
            if pred_ok && addr_tag <> F.tpoison then begin
              let a =
                if n.na_n > 0 then begin
                  n.na_n <- n.na_n - 1;
                  n.na_pool.(n.na_n)
                end
                else begin
                  let a = Memsys.make_access ~words:n.nr_words ~notify:ignore in
                  (* The closure is created once per pooled access and
                     lives as long as it does.  Orphaned accesses
                     (write-buffered stores popped before their banks
                     drained) return to the pool on completion instead
                     of waking the node. *)
                  a.Memsys.a_notify <-
                    (fun () ->
                      if a.Memsys.a_orphan then pool_access n a
                      else wake_emit sim inst n);
                  a
                end
              in
              Memsys.reset_access a ~is_store ~now;
              (match n.nr.kind with
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
              | G.Tload { shape; _ } ->
                let r = G.tile_stride in
                let stride =
                  Exec.to_int_flat sc.Exec.stags.(r) sc.Exec.snums.(r)
                    sc.Exec.sobjs.(r)
                in
                let w = T.shape_words shape in
                a.Memsys.a_n <- w;
                for i = 0 to w - 1 do
                  let r = i / shape.cols and c = i mod shape.cols in
                  a.Memsys.a_addrs.(i) <- addr + (r * stride) + c
                done
              | G.Tstore { shape; _ } ->
                let r = G.tile_stride in
                let stride =
                  Exec.to_int_flat sc.Exec.stags.(r) sc.Exec.snums.(r)
                    sc.Exec.sobjs.(r)
                in
                let tile =
                  match sc.Exec.sobjs.(G.tstore_value) with
                  | T.VTensor t -> t
                  | _ -> zeros4
                in
                let w = T.shape_words shape in
                a.Memsys.a_n <- w;
                for i = 0 to w - 1 do
                  let r = i / shape.cols and c = i mod shape.cols in
                  a.Memsys.a_addrs.(i) <- addr + (r * stride) + c;
                  a.Memsys.a_tags.(i) <- F.tfloat;
                  a.Memsys.a_nums.(i) <- 0;
                  a.Memsys.a_flts.(i) <- tile.(i);
                  set_obj a.Memsys.a_objs i F.no_obj
                done
              | _ -> assert false);
              let rt = sim.ms.Memsys.space_of n.nr_space in
              Memsys.split rt a;
              let buffered = is_store && Memsys.store_buffered rt in
              if is_store && not buffered then
                iv.iv_stores <- iv.iv_stores + 1;
              for j = 0 to a.Memsys.a_nsrs - 1 do
                junction_push inst n.nr_space a.Memsys.a_srs.(j)
              done;
              (* write-back buffer: the store is architecturally done
                 the moment the buffer accepts it; it drains to the
                 bank in FIFO order behind this point *)
              if buffered then a.Memsys.a_done <- true;
              n.nm_live.(s) <- true;
              if n.nm_acc.(s) != a then n.nm_acc.(s) <- a
            end
            else begin
              (* Predicated off (or poison address): a gated entry
                 flows through the window without touching memory. *)
              n.nm_live.(s) <- false;
              if n.nm_acc.(s) != dummy_access then
                n.nm_acc.(s) <- dummy_access
            end;
            n.nm_store.(s) <- is_store;
            n.nm_hasiv.(s) <- is_store;
            if n.nm_inv.(s) != iv then n.nm_inv.(s) <- iv;
            n.nm_tail <- n.nm_tail + 1;
            n.nr_busy_until <- now + n.nr_cost.ii;
            n.nr_fired <- n.nr_fired + 1;
            true
          end
        | G.CallChild tid | G.SpawnChild tid ->
          let sc = inst.i_sc in
          stage_inputs n sc;
          let p = G.pred_port in
          let pred_ok =
            Exec.truthy_flat sc.Exec.stags.(p) sc.Exec.snums.(p)
              sc.Exec.sobjs.(p)
          in
          let child = sim.tasks.(tid) in
          let is_spawn =
            match n.nr.kind with G.SpawnChild _ -> true | _ -> false
          in
          let queue_cap = child.tk.queue_depth * Int.max child.tk.tiles 1 in
          if pred_ok && tq_len child >= queue_cap && not child.tdynamic
          then begin
            (* Park on the child's full queue; its dispatch pops us
               back onto the worklist. *)
            if not n.nr_wait_child then begin
              n.nr_wait_child <- true;
              child.tw_inst <- vpush child.tw_inst child.tw_n inst;
              child.tw_node <- vpush child.tw_node child.tw_n n;
              child.tw_n <- child.tw_n + 1
            end;
            false
          end
          else begin
            let wave = n.nr_fired in
            let iv = attr_inv inst n in
            let nin = Array.length n.nr_in in
            pop_all sim n;
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
                  ~rnode:n ~rwave:wave ~rctx:eff
              in
              let base = s * Int.max child.t_arity 1 in
              for i = 0 to child.t_arity - 1 do
                if i = 0 then begin
                  child.tq_tags.(base) <- F.ttrue;
                  child.tq_nums.(base) <- 0;
                  child.tq_flts.(base) <- 0.0;
                  set_obj child.tq_objs base F.no_obj
                end
                else if i < nin then begin
                  child.tq_tags.(base + i) <- sc.Exec.stags.(i);
                  child.tq_nums.(base + i) <- sc.Exec.snums.(i);
                  child.tq_flts.(base + i) <- sc.Exec.sflts.(i);
                  set_obj child.tq_objs (base + i) sc.Exec.sobjs.(i)
                end
                else begin
                  child.tq_tags.(base + i) <- F.tpoison;
                  child.tq_nums.(base + i) <- 0;
                  child.tq_flts.(base + i) <- 0.0;
                  set_obj child.tq_objs (base + i) F.no_obj
                end
              done
            end
            else begin
              (* Predicated off: synthesize an immediate response. *)
              let s = resp_insert n wave in
              let w = Int.max n.rs_w 1 in
              if is_spawn then begin
                n.rs_tags.(s * w) <- F.tpoison;
                n.rs_nums.(s * w) <- 0;
                n.rs_flts.(s * w) <- 0.0;
                set_obj n.rs_objs (s * w) F.no_obj
              end
              else
                for k = 0 to n.rs_w - 1 do
                  n.rs_tags.((s * w) + k) <-
                    (if k = 0 then F.tfalse else F.tpoison);
                  n.rs_nums.((s * w) + k) <- 0;
                  n.rs_flts.((s * w) + k) <- 0.0;
                  set_obj n.rs_objs ((s * w) + k) F.no_obj
                done
            end;
            n.nr_busy_until <- now + n.nr_cost.ii;
            n.nr_fired <- n.nr_fired + 1;
            true
          end
        | G.SyncWait ->
          let iv = attr_inv inst n in
          pop_all sim n;
          sync_push n iv n.nr_fired;
          (* Park on the join context: each child completion retries
             the sync's emission. *)
          cx_park iv.iv_eff_ctx inst n;
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.LiveOut idx ->
          let sc = inst.i_sc in
          ignore (stage_one n sc 0);
          let iv =
            match inst.it.tkind with
            | G.Tfunc -> find_inv inst n.nr_fired
            | G.Tloop _ -> attr_inv inst n
          in
          pop_all sim n;
          iv.iv_lo_tags.(idx) <- sc.Exec.stags.(0);
          iv.iv_lo_nums.(idx) <- sc.Exec.snums.(0);
          iv.iv_lo_flts.(idx) <- sc.Exec.sflts.(0);
          set_obj iv.iv_lo_objs idx sc.Exec.sobjs.(0);
          n.nr_fired <- n.nr_fired + 1;
          true
        | G.LiveIn _ | G.MergeLoop -> assert false
      end

(* ------------------------------------------------------------------ *)
(* Stall classification (always-on)                                     *)

(* Why did this woken node fail to fire?  Mirrors [try_fire]'s failure
   paths; a failed attempt has no side effects, so re-inspecting the
   state after the attempt is exact. *)
let stall_cause (sim : t) (n : node_rt) : Ctr.cause =
  if n.nr_busy_until > sim.now then Ctr.Structural
  else
    match n.nr.kind with
    | G.LiveIn _ -> Ctr.Idle (* driven by injection, never stalled *)
    | _ when not (can_start n) -> Ctr.Operand
    | G.MergeLoop -> Ctr.Backpressure
    | G.CallChild _ | G.SpawnChild _ -> Ctr.Structural
    | _ ->
      if n.nr_mem then Ctr.Memory
      else if n.np_tail - n.np_head >= Cost.pipe_slots then Ctr.Backpressure
      else Ctr.Operand

(* The label a node enters after firing at [sim.now], effective from
   [sim.now + 1].  Any event that changes the node's state relabels it,
   so this only has to be right for the state as left by the firing. *)
let post_fire_cause (sim : t) (n : node_rt) (ra : bool) : Ctr.cause =
  match n.nr.kind with
  | G.SyncWait -> Ctr.Sync
  | _ ->
    if not ra then Ctr.Operand
    else if n.nr_busy_until > sim.now + 1 then Ctr.Structural
    else if n.nr_mem then
      if n.nm_tail - n.nm_head >= sim.max_outstanding then Ctr.Memory
      else Ctr.Busy
    else if n.np_tail - n.np_head >= Cost.pipe_slots then Ctr.Backpressure
    else Ctr.Busy

(** Fire attempt plus the event subscriptions a success implies. *)
let fire_node (sim : t) (inst : instance) (n : node_rt) : bool =
  let fired = try_fire sim inst n in
  (* Interval accounting is always-on (it feeds the counter bank); the
     ring only sees events when a tracer is attached. *)
  let np = inst.i_prof.Ctr.Prof.nprofs.(n.nr_idx) in
  (* Could the node fire again with the tokens already committed?  No
     other event will arrive for them, so a firing self-schedules its
     next attempt (live-ins never fire here). *)
  let ra = fired && can_start n in
  if fired then begin
    ignore (Ctr.Prof.transition np (Ctr.cause_index Ctr.Busy) sim.now);
    ignore
      (Ctr.Prof.transition np
         (Ctr.cause_index (post_fire_cause sim n ra))
         (sim.now + 1));
    match sim.tr with
    | Some tr ->
      Tr.emit tr
        (Tr.Efire
           { c = sim.now; task = inst.it.tid; inst = inst.iid;
             node = n.nr.nid; lat = n.nr_cost.latency })
    | None -> ()
  end
  else begin
    let cause = stall_cause sim n in
    let changed = Ctr.Prof.transition np (Ctr.cause_index cause) sim.now in
    match sim.tr with
    | Some tr when changed && cause <> Ctr.Idle ->
      Tr.emit tr
        (Tr.Estall
           { c = sim.now; task = inst.it.tid; inst = inst.iid;
             node = n.nr.nid; cause })
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
    if n.nr_pipe then begin
      if n.np_tail - n.np_head = 1 then begin
        let ready = n.np_ready.(n.np_head land (Cost.pipe_slots - 1)) in
        if ready <= sim.now then wake_emit sim inst n
        else at sim ready inst n 1
      end
    end
    else (match n.nr.kind with G.LiveOut _ -> () | _ -> wake_emit sim inst n);
    wake_complete sim inst;
    (match n.nr.kind with
    | G.Load _ | G.Store _ | G.Tload _ | G.Tstore _ ->
      wake_junction sim inst
    | G.SpawnChild _ ->
      sim.ctrs.Ctr.spawns <- sim.ctrs.Ctr.spawns + 1;
      (* spawns_issued moved: parked syncs may now be able to pass *)
      for k = 0 to Array.length inst.isyncs - 1 do
        wake_emit sim inst inst.isyncs.(k)
      done
    | _ -> ());
    (* Tokens already committed can enable the next firing without any
       further event: self-schedule past the initiation interval. *)
    if ra then at sim (Int.max n.nr_busy_until (sim.now + 1)) inst n 0;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Emission (phase B)                                                   *)

let rec port_space_from (fs : fifo array) (k : int) : bool =
  k >= Array.length fs || (fifo_space fs.(k) && port_space_from fs (k + 1))

let port_space (n : node_rt) (p : int) : bool =
  port_space_from n.nr_out.(p) 0

let emit_port (sim : t) (n : node_rt) (p : int) (tag : int) (num : int)
    (flts : float array) (fi : int) (obj : token) : unit =
  let fs = n.nr_out.(p) in
  for k = 0 to Array.length fs - 1 do
    fifo_push sim fs.(k) tag num flts fi obj
  done

(* The emission drains below are top-level and tail-recursive, each
   threading its progress flag as an argument: defined locally to
   [try_emit] they would allocate a closure per node per cycle. *)

(* Pipeline outputs (in order). *)
let rec drain_pipe (sim : t) (n : node_rt) (progressed : bool) : bool =
  if n.np_tail - n.np_head > 0 then begin
    let s = n.np_head land (Cost.pipe_slots - 1) in
    if n.np_ready.(s) <= sim.now && port_space n n.np_port.(s) then begin
      n.np_head <- n.np_head + 1;
      emit_port sim n n.np_port.(s) n.np_tags.(s) n.np_nums.(s) n.np_flts
        s n.np_objs.(s);
      drain_pipe sim n true
    end
    else progressed
  end
  else progressed

(* Memory responses (FIFO per node).  [sc] is the owning instance's
   flat scratch — tile assembly parks its float there so nothing is
   boxed on the way to the ports. *)
let rec drain_mem (sim : t) (sc : Exec.sc) (n : node_rt)
    (progressed : bool) : bool =
  if n.nm_tail - n.nm_head > 0 then begin
    let mm = Array.length n.nm_live - 1 in
    let s = n.nm_head land mm in
    let live = n.nm_live.(s) in
    if (not live) || n.nm_acc.(s).Memsys.a_done then begin
      let is_load =
        match n.nr.kind with
        | G.Load _ | G.Tload _ -> true
        | _ -> false
      in
      let data = G.load_data and ack = G.mem_done n.nr in
      let space =
        if is_load then port_space n data && port_space n ack
        else port_space n ack
      in
      if space then begin
        let a = n.nm_acc.(s) in
        n.nm_head <- n.nm_head + 1;
        if n.nm_store.(s) && live then begin
          let iv = n.nm_inv.(s) in
          if iv.iv_stores > 0 then iv.iv_stores <- iv.iv_stores - 1
        end;
        (match n.nr.kind, live with
        | (G.Load _ | G.Tload _), false ->
          (* gated: poison data, ack false *)
          emit_port sim n data F.tpoison 0 f0 0 F.no_obj;
          emit_port sim n ack F.tfalse 0 f0 0 F.no_obj
        | G.Load _, true ->
          emit_port sim n data a.Memsys.a_tags.(0) a.Memsys.a_nums.(0)
            a.Memsys.a_flts 0 a.Memsys.a_objs.(0);
          emit_port sim n ack F.ttrue 0 f0 0 F.no_obj
        | G.Tload _, true ->
          let v = Memsys.tile_value a in
          sc.Exec.rflt.(0) <- F.flt_of v;
          emit_port sim n data (F.tag_of v) (F.num_of v) sc.Exec.rflt 0
            (F.obj_of v);
          emit_port sim n ack F.ttrue 0 f0 0 F.no_obj
        | (G.Store _ | G.Tstore _), false ->
          emit_port sim n ack F.tfalse 0 f0 0 F.no_obj
        | (G.Store _ | G.Tstore _), true ->
          emit_port sim n ack F.ttrue 0 f0 0 F.no_obj
        | _ -> assert false);
        (* Recycle the access: banks still draining a write-buffered
           store keep it as an orphan and return it on completion. *)
        if live then begin
          if a.Memsys.a_pending <= 0 then pool_access n a
          else a.Memsys.a_orphan <- true
        end;
        drain_mem sim sc n true
      end
      else progressed
    end
    else progressed
  end
  else progressed

let rec ports_free (n : node_rt) (p : int) (k : int) : bool =
  p >= k || (port_space n p && ports_free n (p + 1) k)

(* Call/spawn responses in wave order. *)
let rec drain_resp (sim : t) (n : node_rt) (progressed : bool) : bool =
  if resp_ready n n.nr_next_resp then begin
    let cap = Array.length n.rs_wave in
    let s = n.nr_next_resp land (cap - 1) in
    let w = Int.max n.rs_w 1 in
    let k = Int.min n.rs_w (Array.length n.nr_out) in
    if ports_free n 0 k then begin
      n.rs_wave.(s) <- -1;
      n.nr_next_resp <- n.nr_next_resp + 1;
      for p = 0 to k - 1 do
        emit_port sim n p
          n.rs_tags.((s * w) + p)
          n.rs_nums.((s * w) + p)
          n.rs_flts
          ((s * w) + p)
          n.rs_objs.((s * w) + p)
      done;
      drain_resp sim n true
    end
    else progressed
  end
  else progressed

(* A sync of wave [w] may only complete once every spawn of the task
   has issued wave [w]'s spawns — otherwise it could observe a
   transiently-zero child count before the children were even
   created. *)
let rec spawns_issued_from (inst : instance) (wave : int) (i : int) : bool
    =
  i >= Array.length inst.inodes
  || ((match inst.inodes.(i).nr.kind with
      | G.SpawnChild _ -> inst.inodes.(i).nr_fired > wave
      | _ -> true)
     && spawns_issued_from inst wave (i + 1))

(* Sync completions, in order. *)
let rec drain_sync (sim : t) (inst : instance) (n : node_rt)
    (progressed : bool) : bool =
  if n.ns_tail - n.ns_head > 0 then begin
    let s = n.ns_head land (Array.length n.ns_wave - 1) in
    let iv = n.ns_inv.(s) in
    let wave = n.ns_wave.(s) in
    (* A stale entry (its invocation completed and was reused while
       the emission was backpressured) behaves like the completed
       invocation it referenced: zero live children. *)
    let children_ok =
      iv.iv_gen <> n.ns_gen.(s) || iv.iv_eff_ctx.live_children = 0
    in
    if spawns_issued_from inst wave 0 && children_ok && port_space n 0
    then begin
      n.ns_head <- n.ns_head + 1;
      sim.ctrs.Ctr.syncs <- sim.ctrs.Ctr.syncs + 1;
      emit_port sim n 0 F.ttrue 0 f0 0 F.no_obj;
      drain_sync sim inst n true
    end
    else progressed
  end
  else progressed

let try_emit (sim : t) (inst : instance) (n : node_rt) : bool =
  if n.nr_pipe then begin
    let progressed = drain_pipe sim n false in
    (* A new ring head wakes the node on its due cycle; an unchanged
       head already has its wake. *)
    (if progressed && n.np_tail - n.np_head > 0 then
       let ready = n.np_ready.(n.np_head land (Cost.pipe_slots - 1)) in
       if ready > sim.now then at sim ready inst n 1);
    progressed
  end
  else
    let progressed = drain_mem sim inst.i_sc n false in
    let progressed = drain_resp sim n progressed in
    drain_sync sim inst n progressed

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
   fired.  A woken node whose attempt would change nothing is skipped
   here rather than when woken: between the wake and this drain the
   completion phase may relabel it idle, and then the attempt matters.
   Top-level and tail-recursive: nothing here allocates. *)
let rec fire_bits (sim : t) (inst : instance) (base : int) (w : int)
    (any : bool) : bool =
  if w = 0 then any
  else begin
    let b = w land -w in
    let n = inst.inodes.(base + bit_index b) in
    if futile inst n sim.now then fire_bits sim inst base (w lxor b) any
    else begin
      sim.woken <- sim.woken + 1;
      let f = fire_node sim inst n in
      fire_bits sim inst base (w lxor b) (any || f)
    end
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
    let n = inst.inodes.(base + bit_index b) in
    if try_emit sim inst n then begin
      sim.last_activity <- sim.now;
      (* Freed pipeline/memory slots may unblock the node's next
         firing; drained state feeds the completion check below. *)
      wake_fire sim inst n;
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
        let wn = trt.tw_node.(i) in
        wn.nr_wait_child <- false;
        wake_fire sim trt.tw_inst.(i) wn
      done
    end
  end;
  tq_len trt > 0

(* Phase 7: commit staged channel writes, dirty channels only (each
   transfer is independent, so their order does not matter). *)
let commit (sim : t) : unit =
  for i = 0 to sim.ld_n - 1 do
    let f = sim.ld_v.(i) in
    f.f_dirty <- false;
    if f.ftail - f.fmid > 0 then begin
      let dn = f.f_dn in
      if f.fmid = f.fhead then dn.nr_miss <- dn.nr_miss - 1;
      f.fmid <- f.ftail;
      (* Fresh tokens: the consumer may be able to fire.  Nothing
         changes a label, an operand or a busy time between here and
         the next fire phase, so the futility check is already final;
         of several commits into one consumer, the last sees them all. *)
      if not (futile f.f_di dn (sim.now + 1)) then wake_fire sim f.f_di dn
    end
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
  sim.node_cycles <- sim.node_cycles + sim.live_nodes;
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
          Array.iter
            (fun (n : node_rt) ->
              let in_state =
                Array.to_list
                  (Array.map
                     (function
                       | None -> "imm"
                       | Some (f : fifo) -> string_of_int (f.fmid - f.fhead))
                     n.nr_in)
              in
              let out_state =
                Array.to_list
                  (Array.map
                     (fun fs ->
                       String.concat "/"
                         (List.map
                            (fun (f : fifo) ->
                              Fmt.str "%d(%d)" (f.fmid - f.fhead) f.fcap)
                            (Array.to_list fs)))
                     n.nr_out)
              in
              Buffer.add_string buf
                (Fmt.str
                   "  n%d %s fired=%d pipe=%d mem=%d next=%d sync=%d in=[%s] out=[%s]@."
                   n.nr.nid
                   (Muir_core.Graph.kind_to_string n.nr.kind)
                   n.nr_fired
                   (n.np_tail - n.np_head)
                   (n.nm_tail - n.nm_head)
                   n.nr_next_resp
                   (n.ns_tail - n.ns_head)
                   (String.concat ";" in_state)
                   (String.concat ";" out_state)))
            inst.inodes
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
      ~rnode:dummy_node ~rwave:0 ~rctx:root_ctx
  in
  let base = s * max root.t_arity 1 in
  for i = 0 to root.t_arity - 1 do
    root.tq_tags.(base + i) <- F.tpoison;
    root.tq_nums.(base + i) <- 0;
    root.tq_flts.(base + i) <- 0.0;
    root.tq_objs.(base + i) <- F.no_obj
  done;
  List.iteri
    (fun i v ->
      if i < root.t_arity then begin
        root.tq_tags.(base + i) <- F.tag_of v;
        root.tq_nums.(base + i) <- F.num_of v;
        root.tq_flts.(base + i) <- F.flt_of v;
        root.tq_objs.(base + i) <- F.obj_of v
      end)
    (T.VBool true :: args)

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
        if inst.live then begin
          let ip = inst.i_prof in
          Array.iteri
            (fun i np ->
              let n = inst.inodes.(i) in
              Ctr.fold sim.ctrs ~task:inst.it.tid ~node:n.nr.G.nid
                ~fires:n.nr_fired ~born:ip.born ~upto:sim.now np)
            ip.Ctr.Prof.nprofs
        end
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
     program or a wall-clock too small to resolve would otherwise put
     nan/inf into profiles and machine-read reports. *)
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
        cycles_per_sec =
          (if wall > 0.0 then finite (float_of_int sim.now /. wall) else 0.0);
        woken_per_cycle = per_cycle sim.woken;
        live_nodes_per_cycle = per_cycle sim.node_cycles;
        gc_minor_words_per_cycle = finite gc_rate;
        gc_major_collections =
          gc1.Gc.major_collections - gc0.Gc.major_collections } }
