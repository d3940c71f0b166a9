(** Static timing analysis: per-task steady-state II lower bounds and
    a whole-run cycle lower bound, from the graph alone.

    Each compiled task is abstracted into a timed token-flow graph in
    the sense of {!Sdf}:

    - every channel becomes a forward edge weighted with its
      producer's latency ({!Muir_core.Cost}) and marked with its
      initial tokens — plus one virtual token on a mu-node back edge
      ({!Muir_core.Graph.mu_back}), which the first firing skips,
      exactly as {!Liveness.first_fire_reads} models it;
    - finite capacity becomes a zero-weight reverse edge marked with
      the free slots, the classical marked-graph encoding of
      backpressure;
    - a mu/steer loop ring therefore closes through the primed
      control edges, and the memory ordering chains close through
      their primed back edge;
    - a function unit with initiation interval [> 1] gets a
      one-token self-loop of that weight;
    - a call site into a serialized (non-wave-pipelined) loop child
      gets a self-loop marked with the child's in-flight window
      (queue slots + instances) and weighted with the child's
      per-invocation latency [R_min] — the caller parks on the full
      queue, so at most [window] invocations separate a firing from
      the completion that frees its slot.  A child instanced on
      demand has no window: the kernel never parks on its queue.

    The execution rules modeled here are the kernel's own, read from
    {!Muir_core.Cost}: the output-ring depth, the wave-pipelining
    predicate and the two task sets of {!Muir_core.Cost.instancing}.
    A {e recursive} task lies on a call/spawn cycle; its invocation
    count and [R_min] are unknown, and the report flags it
    [dynamic].  The kernel instances a wider set on demand: the
    recursive tasks and every task reachable from one.

    The maximum cycle ratio of that graph bounds the task's
    initiation interval from below; the attaining cycle is the
    critical cycle, and the provenance tags on its edges name the
    binding resource (task queue, memory chain, channel capacity,
    function unit, or the dataflow ring itself) — the structure a
    Dynamatic-style sizing pass would grow.

    {b Soundness.}  The whole-run bound multiplies per-cycle wave
    counts by statically-known trip counts ({!Muir_ir.Loops.trip_count})
    and is asserted [<= measured cycles] on every workload x stack
    pair by the test suite and the bench [timing] experiment.  Every
    step errs low:

    - counting is restricted to nodes that provably fire once per
      wave (mu, steer, merges, memory ops — which pass their ordering
      token even when predicated off — and computes fed only by
      those), so a cycle through an [if]-shadowed node never counts;
    - a loop invocation charges [floor((trips-1)/M) * W] — one fewer
      traversal than the ring really makes;
    - wave-pipelined leaf loops ({!Muir_core.Cost.pipelined}: the
      simulator's in-order concurrent invocations) overlap
      invocations, so they charge only the mu node's firing count at
      II 1 and their [R_min] ring term uses pure-dependence cycles
      (capacity and FU constraints are physical and shared across
      overlapped invocations, so they cannot be charged per wave);
    - recursive tasks and unknown trip counts charge nothing;
    - gated calls receive immediate synthesized responses, so call
      latency is upgraded to the child's [R_min] only when the
      predicate is provably the wave token or the loop condition. *)

module G = Muir_core.Graph
module Cost = Muir_core.Cost
module T = Muir_ir.Types

(* ------------------------------------------------------------------ *)
(* Provenance and results                                              *)

(** Where an abstract-graph constraint came from. *)
type prov =
  | Pedge of G.edge          (** forward dependence through a channel *)
  | Pcap of G.edge           (** backpressure from finite capacity *)
  | Pii of G.node_id         (** function-unit initiation interval *)
  | Pwindow of G.task_id     (** a child task's in-flight window *)

(** The resource binding a critical cycle. *)
type binding =
  | Bqueue of G.task_id      (** child task queue/instance window *)
  | Bmem of G.struct_id      (** memory ordering chain of a structure *)
  | Bbuffer of int           (** channel capacity (edge id) *)
  | Bfu of G.node_id         (** a long-II function unit *)
  | Bring                    (** pure dataflow dependence *)

type ii_bound =
  | Unconstrained            (** no cycle: waves stream freely *)
  | Deadlocked of G.node_id list
      (** zero-token cycle — liveness reports the same ring as an
          error; the II is infinite *)
  | Bounded of {
      num : int;
      den : int;             (** II >= num/den cycles per wave *)
      cycle : G.node_id list; (** the critical cycle, in ring order *)
      binding : binding;
    }

type task_timing = {
  tt_tid : G.task_id;
  tt_name : string;
  tt_ii : ii_bound;
  tt_trips : int option;     (** static body-trip count (loop tasks) *)
  tt_ninv : int;             (** statically-counted invocations; 0 =
                                 unknown (dynamic or unbounded calls) *)
  tt_rmin : int;             (** per-invocation latency lower bound *)
  tt_bound : int;            (** whole-run cycles this task alone forces *)
  tt_pipelined : bool;       (** leaf loop: invocations wave-pipeline *)
  tt_dynamic : bool;         (** recursive: on a call/spawn cycle, so
                                 [ninv] and [R_min] are unknown *)
}

type t = {
  tasks : task_timing list;  (** in task-id order *)
  bound : int;  (** lower bound on the run's total cycles; 0 = vacuous *)
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let ceil_div a b = if b <= 0 then 0 else (a + b - 1) / b

(** [floor((waves - 1) / m) * w]: full traversals a ring with marking
    [m] and weight [w] must make to pass [waves] firings through every
    node on it — deliberately one traversal short. *)
let counted_traversals ~(waves : int) ~(w : int) ~(m : int) : int =
  if waves <= 1 || m <= 0 then 0 else (waves - 1) / m * w

(* ------------------------------------------------------------------ *)
(* Per-task structural facts                                           *)

(** How a node's predicate input ({!Muir_core.Graph.pred_port} of
    memory/call nodes) is driven.  Only the provably-every-wave
    classes justify charging the child's full latency: a gated call or
    load is answered immediately by the simulator. *)
type pred_class = AlwaysTrue | LoopCond | Other

type tctx = {
  ctx : Liveness.ctx;
  every_wave : (int, unit) Hashtbl.t;
      (** nodes firing once per wave, proven structurally *)
  pred_of : G.node -> pred_class;
  idx_of : (int, int) Hashtbl.t;   (** node id -> dense index *)
  nid_of : int array;              (** dense index -> node id *)
}

let make_tctx (t : G.task) : tctx =
  let ctx = Liveness.make_ctx t in
  let nodes = t.nodes in
  let n = List.length nodes in
  let idx_of = Hashtbl.create n and nid_of = Array.make (max n 1) 0 in
  List.iteri
    (fun i (nd : G.node) ->
      Hashtbl.replace idx_of nd.nid i;
      nid_of.(i) <- nd.nid)
    nodes;
  (* The wave token's entry: LiveIn 0, and the token mu primed from
     it (build wires LiveIn 0 into the token mu's init port). *)
  let livein0 =
    List.find_opt
      (fun (nd : G.node) -> nd.kind = G.LiveIn 0)
      nodes
  in
  let li0 = match livein0 with Some nd -> nd.nid | None -> -1 in
  let mu_tok =
    List.fold_left
      (fun acc (e : G.edge) ->
        if fst e.src = li0 && snd e.dst = G.mu_init
           && (match (ctx.Liveness.node_of (fst e.dst)).kind with
              | G.MergeLoop -> true
              | _ -> false)
        then fst e.dst
        else acc)
      (-1) t.edges
  in
  (* The loop-condition port: source of the primed control edges into
     the mu nodes' ctl inputs. *)
  let ctl_srcs = Hashtbl.create 4 in
  List.iter
    (fun (e : G.edge) ->
      match e.initial with
      | [ T.VBool false ]
        when snd e.dst = G.mu_ctl
             && (match (ctx.Liveness.node_of (fst e.dst)).kind with
                | G.MergeLoop -> true
                | _ -> false) ->
        Hashtbl.replace ctl_srcs e.src ()
      | _ -> ())
    t.edges;
  let pred_of (nd : G.node) : pred_class =
    match nd.ins.(G.pred_port) with
    | G.Simm v -> if T.truthy v then AlwaysTrue else Other
    | G.Swire -> (
      match
        List.find_opt
          (fun (e : G.edge) -> snd e.dst = G.pred_port)
          (ctx.Liveness.ins_of nd.nid)
      with
      | None -> Other
      | Some e ->
        if fst e.src = li0 || fst e.src = mu_tok then AlwaysTrue
        else if Hashtbl.mem ctl_srcs e.src then LoopCond
        else Other)
  in
  (* Nodes that fire once per wave: control and memory plumbing
     always does (predicated-off memory ops and calls still consume
     and forward their tokens); a compute does iff everything feeding
     it does, and nothing feeding it is a steer output (a steer emits
     on only one side). *)
  let every_wave = Hashtbl.create n in
  List.iter
    (fun (nd : G.node) ->
      match nd.kind with
      | G.MergeLoop | G.Steer | G.FusedSteer _ | G.Merge _
      | G.LiveIn _ | G.LiveOut _
      | G.Load _ | G.Store _ | G.Tload _ | G.Tstore _
      | G.CallChild _ | G.SpawnChild _ | G.SyncWait ->
        Hashtbl.replace every_wave nd.nid ()
      | G.Compute _ | G.Fused _ | G.Tcompute _ -> ())
    nodes;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (nd : G.node) ->
        match nd.kind with
        | G.Compute _ | G.Fused _ | G.Tcompute _
          when not (Hashtbl.mem every_wave nd.nid) ->
          let ok =
            List.for_all
              (fun (e : G.edge) ->
                Hashtbl.mem every_wave (fst e.src)
                &&
                match (ctx.Liveness.node_of (fst e.src)).kind with
                | G.Steer | G.FusedSteer _ -> false
                | _ -> true)
              (ctx.Liveness.ins_of nd.nid)
          in
          if ok then begin
            Hashtbl.replace every_wave nd.nid ();
            changed := true
          end
        | _ -> ())
      nodes
  done;
  { ctx; every_wave; pred_of; idx_of; nid_of }

(* ------------------------------------------------------------------ *)
(* Graph abstraction                                                   *)

type flavor =
  | Full       (** dependence + capacity + FU + child windows *)
  | Dep_only   (** pure dependence: per-wave chains that hold even
                   when other invocations interleave *)

(** Abstract one task.  [out_lat] maps a producing node to the weight
    of its outgoing tokens (call sites upgraded to the child's
    [R_min] by the caller); [window] yields a call site's in-flight
    self-loop, when sound.  [restrict] keeps only every-wave nodes
    (for counted whole-run bounds). *)
let build_sdf (tc : tctx) ~(flavor : flavor) ~(restrict : bool)
    ~(out_lat : G.node -> int)
    ~(window : G.node -> (int * int * G.task_id) option) :
    prov Sdf.edge list =
  let t = tc.ctx.Liveness.t in
  let keep nid = (not restrict) || Hashtbl.mem tc.every_wave nid in
  let idx nid = Hashtbl.find tc.idx_of nid in
  let acc = ref [] in
  List.iter
    (fun (e : G.edge) ->
      let dn = tc.ctx.Liveness.node_of (fst e.dst) in
      let init_port =
        match dn.kind with G.MergeLoop -> snd e.dst = G.mu_init | _ -> false
      in
      (* A mu init edge is consumed only by the first firing: it
         constrains no steady-state wave, in either direction. *)
      if (not init_port) && keep (fst e.src) && keep (fst e.dst) then begin
        let sn = tc.ctx.Liveness.node_of (fst e.src) in
        let back = not (Liveness.first_fire_reads dn (snd e.dst)) in
        let m = List.length e.initial + if back then 1 else 0 in
        acc :=
          { Sdf.esrc = idx (fst e.src); edst = idx (fst e.dst);
            ew = out_lat sn; em = m; etag = Pedge e }
          :: !acc;
        (* Backpressure is looser than the FIFO capacity alone: a full
           output channel blocks the *drain*, not the fire — each node
           holds up to [Cost.pipe_slots] undrained results in its
           pipeline ring, so the producer runs [capacity + pipe_slots]
           firings ahead.  Sources that never block on a full output are
           exempt entirely: memory nodes (the simulator skips the
           ring-occupancy check for them) and call/spawn sites, whose
           responses land in an unbounded completion store before
           being emitted. *)
        let exempt =
          G.is_memory_node sn
          || match sn.kind with
             | G.CallChild _ | G.SpawnChild _ -> true
             | _ -> false
        in
        if flavor = Full && not exempt then begin
          let free = e.capacity - List.length e.initial in
          acc :=
            { Sdf.esrc = idx (fst e.dst); edst = idx (fst e.src);
              ew = 0; em = max 0 free + Cost.pipe_slots; etag = Pcap e }
            :: !acc
        end
      end)
    t.edges;
  if flavor = Full then
    List.iter
      (fun (nd : G.node) ->
        if keep nd.nid then begin
          let ii = (Cost.node_cost nd.kind).Cost.ii in
          if ii > 1 then
            acc :=
              { Sdf.esrc = idx nd.nid; edst = idx nd.nid; ew = ii; em = 1;
                etag = Pii nd.nid }
              :: !acc;
          match window nd with
          | Some (w, m, child) ->
            acc :=
              { Sdf.esrc = idx nd.nid; edst = idx nd.nid; ew = w; em = m;
                etag = Pwindow child }
              :: !acc
          | None -> ()
        end)
      t.nodes;
  !acc

(** The binding resource of a critical cycle, by provenance priority:
    a child window or a call site's service latency (the cycle turns
    at the child's rate — its queue/instances are what to widen), then
    a memory ordering chain, then channel capacity, then a long-II
    unit; a cycle of pure forward data edges is the dataflow ring
    itself. *)
let classify (c : G.circuit) (tc : tctx) (cyc : prov Sdf.edge list) :
    binding =
  let find f = List.find_map f cyc in
  let window_child =
    match
      find (fun e ->
          match e.Sdf.etag with Pwindow t -> Some t | _ -> None)
    with
    | Some tid -> Some tid
    | None ->
      find (fun e ->
          match e.Sdf.etag with
          | Pedge ge -> (
            match (tc.ctx.Liveness.node_of (fst ge.src)).kind with
            | G.CallChild ct -> Some ct
            | _ -> None)
          | _ -> None)
  in
  match window_child with
  | Some tid -> Bqueue tid
  | None -> (
    let mem_chain =
      find (fun e ->
          match e.Sdf.etag with
          | Pedge ge ->
            let dn = tc.ctx.Liveness.node_of (fst ge.dst) in
            if G.is_order_port dn (snd ge.dst) then
              match G.node_space dn with
              | Some sp -> Some (G.structure_of_space c sp).G.sid
              | None -> None
            else None
          | _ -> None)
    in
    match mem_chain with
    | Some sid -> Bmem sid
    | None -> (
      match
        find (fun e ->
            match e.Sdf.etag with Pcap ge -> Some ge.eid | _ -> None)
      with
      | Some eid -> Bbuffer eid
      | None -> (
        match
          find (fun e ->
              match e.Sdf.etag with Pii nid -> Some nid | _ -> None)
        with
        | Some nid -> Bfu nid
        | None -> Bring)))

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)

let analyze (c : G.circuit) : t =
  let ntasks = List.length c.tasks in
  let { Cost.recursive; on_demand } = Cost.instancing c in
  let task_arr = Array.make ntasks None in
  List.iter (fun (t : G.task) -> task_arr.(t.tid) <- Some t) c.tasks;
  let task tid = Option.get task_arr.(tid) in
  let tctxs = Array.init ntasks (fun tid -> make_tctx (task tid)) in
  (* Static trip counts, matched to loop tasks by build naming. *)
  let trips_by_name = Hashtbl.create 16 in
  List.iter
    (fun (f : Muir_ir.Func.t) ->
      List.iter
        (fun (lp : Muir_ir.Func.loop_info) ->
          match Muir_ir.Loops.trip_count f lp with
          | Some tr ->
            Hashtbl.replace trips_by_name
              (Muir_core.Build.task_of_loop_name f lp) tr
          | None -> ())
        f.loops)
    c.prog.Muir_ir.Program.funcs;
  let trips tid = Hashtbl.find_opt trips_by_name (task tid).tname in
  let pipe = Array.init ntasks (fun tid -> Cost.pipelined (task tid)) in

  (* Per-invocation latency floor, children first.  The recursion
     guard breaks call cycles (those tasks are recursive anyway). *)
  let rmin_memo = Array.make ntasks None in
  let rmin_stack = Array.make ntasks false in
  let rec rmin (tid : G.task_id) : int =
    match rmin_memo.(tid) with
    | Some v -> v
    | None ->
      if rmin_stack.(tid) then 1
      else begin
        rmin_stack.(tid) <- true;
        let t = task tid and tc = tctxs.(tid) in
        (* Longest path to the done live-out over blocking edges;
           merges take the min over their value arms (only the taken
           arm ever feeds a firing). *)
        let fmemo = Hashtbl.create 32 in
        let on_path = Hashtbl.create 8 in
        let rec f_of nid : int =
          match Hashtbl.find_opt fmemo nid with
          | Some v -> v
          | None ->
            if Hashtbl.mem on_path nid then 0
            else begin
              Hashtbl.replace on_path nid ();
              let nd = tc.ctx.Liveness.node_of nid in
              let contribs =
                List.filter_map
                  (fun (e : G.edge) ->
                    if Liveness.blocking_edge tc.ctx.Liveness.node_of e
                    then
                      let sn = tc.ctx.Liveness.node_of (fst e.src) in
                      Some (snd e.dst, f_of (fst e.src) + out_lat tc sn)
                    else None)
                  (tc.ctx.Liveness.ins_of nid)
              in
              let v =
                match nd.kind with
                | G.Merge k ->
                  let preds, vals =
                    List.partition (fun (p, _) -> p < k) contribs
                  in
                  let maxl l =
                    List.fold_left (fun a (_, x) -> max a x) 0 l
                  in
                  let minl = function
                    | [] -> 0
                    | l ->
                      List.fold_left
                        (fun a (_, x) -> min a x)
                        max_int l
                  in
                  max (maxl preds) (minl vals)
                | _ ->
                  List.fold_left (fun a (_, x) -> max a x) 0 contribs
              in
              Hashtbl.remove on_path nid;
              Hashtbl.replace fmemo nid v;
              v
            end
        in
        let lo0 =
          List.find_opt
            (fun (nd : G.node) -> nd.kind = G.LiveOut 0)
            t.nodes
        in
        let path = match lo0 with Some nd -> f_of nd.nid | None -> 1 in
        (* A loop invocation additionally makes its counted ring
           traversals before the final wave can exit.  Dependence
           cycles only: capacity and FU slots are shared with
           overlapping invocations when the loop is pipelined. *)
        let ring =
          match (t.tkind, trips tid) with
          | G.Tloop _, Some tr when tr > 1 ->
            let edges =
              build_sdf tctxs.(tid) ~flavor:Dep_only ~restrict:true
                ~out_lat:(fun nd -> out_lat tc nd)
                ~window:(fun _ -> None)
            in
            (match Sdf.max_cycle_ratio (List.length t.nodes) edges with
            | Sdf.Ratio { cyc; _ } ->
              let w, m = Sdf.cycle_sums cyc in
              counted_traversals ~waves:tr ~w ~m
            | Sdf.Acyclic | Sdf.Unbounded _ -> 0)
          | _ -> 0
        in
        let v = max 1 (path + ring) in
        rmin_stack.(tid) <- false;
        rmin_memo.(tid) <- Some v;
        v
      end
  (* Weight of a producer's output tokens: its latency, with call
     sites into non-recursive children upgraded to the child's R_min
     when the predicate provably holds on every counted wave. *)
  and out_lat (tc : tctx) (nd : G.node) : int =
    match nd.kind with
    | G.CallChild child
      when (not recursive.(child))
           && (match tc.pred_of nd with
              | AlwaysTrue | LoopCond -> true
              | Other -> false) ->
      max (Cost.node_cost nd.kind).Cost.latency (rmin child)
    | k -> (Cost.node_cost k).Cost.latency
  in
  (* A serialized loop child admits at most queue + instances
     in-flight invocations; past that, a call firing waits for a
     completion a full R_min ago.  A caller never waits on an
     on-demand child's queue: each invocation gets its own instance. *)
  let window (tc : tctx) (nd : G.node) : (int * int * G.task_id) option =
    match nd.kind with
    | G.CallChild child -> (
      let ct = task child in
      match ct.tkind with
      | G.Tloop _
        when (not on_demand.(child))
             && (not pipe.(child))
             && (match tc.pred_of nd with
                | AlwaysTrue | LoopCond -> true
                | Other -> false) ->
        let m = (ct.queue_depth * max ct.tiles 1) + ct.tiles in
        Some (rmin child, m, child)
      | _ -> None)
    | _ -> None
  in

  (* Statically-counted invocations per task, root first. *)
  let sites = Array.make ntasks [] in
  List.iter
    (fun (t : G.task) ->
      List.iter
        (fun (nd : G.node) ->
          match nd.kind with
          | G.CallChild ch | G.SpawnChild ch ->
            sites.(ch) <- (t.tid, nd) :: sites.(ch)
          | _ -> ())
        t.nodes)
    c.tasks;
  let ninv_memo = Array.make ntasks None in
  let ninv_stack = Array.make ntasks false in
  let rec ninv (tid : G.task_id) : int =
    match ninv_memo.(tid) with
    | Some v -> v
    | None ->
      if ninv_stack.(tid) then 0
      else begin
        ninv_stack.(tid) <- true;
        let v =
          if tid = c.root then 1
          else
            List.fold_left
              (fun acc (ptid, nd) ->
                if recursive.(ptid) then acc
                else
                  let pn = ninv ptid in
                  if pn = 0 then acc
                  else
                    match tctxs.(ptid).pred_of nd with
                    | Other -> acc
                    | AlwaysTrue | LoopCond -> (
                      match (task ptid).tkind with
                      | G.Tfunc -> acc + pn
                      | G.Tloop _ -> (
                        match trips ptid with
                        | Some tr -> acc + (pn * tr)
                        | None -> acc)))
              0 sites.(tid)
        in
        ninv_stack.(tid) <- false;
        ninv_memo.(tid) <- Some v;
        v
      end
  in

  (* Assemble per-task timings. *)
  let timings =
    List.map
      (fun (t : G.task) ->
        let tid = t.tid and tc = tctxs.(t.tid) in
        let nn = List.length t.nodes in
        let full ~restrict =
          build_sdf tc ~flavor:Full ~restrict
            ~out_lat:(fun nd -> out_lat tc nd)
            ~window:(fun nd -> window tc nd)
        in
        (* Reported steady-state II: the full graph, no counting
           restriction — a per-wave description of the ring. *)
        let tt_ii =
          match Sdf.max_cycle_ratio nn (full ~restrict:false) with
          | Sdf.Acyclic -> Unconstrained
          | Sdf.Unbounded cyc ->
            Deadlocked
              (List.map (fun e -> tc.nid_of.(e.Sdf.esrc)) cyc)
          | Sdf.Ratio { num; den; cyc } ->
            Bounded
              { num; den;
                cycle = List.map (fun e -> tc.nid_of.(e.Sdf.esrc)) cyc;
                binding = classify c tc cyc }
        in
        let tr = trips tid in
        let nv = if recursive.(tid) then 0 else ninv tid in
        let tiles = max t.tiles 1 in
        let ninst = ceil_div nv tiles in
        (* Whole-run charge: counted firings of every-wave nodes
           through the restricted graph's critical cycle. *)
        let counted_bound ~waves =
          match Sdf.max_cycle_ratio nn (full ~restrict:true) with
          | Sdf.Ratio { cyc; _ } ->
            let w, m = Sdf.cycle_sums cyc in
            counted_traversals ~waves ~w ~m
          | Sdf.Acyclic | Sdf.Unbounded _ -> 0
        in
        let tt_bound =
          if recursive.(tid) || nv = 0 then 0
          else
            match t.tkind with
            | G.Tfunc -> counted_bound ~waves:ninst
            | G.Tloop _ -> (
              match tr with
              | None -> 0
              | Some trc ->
                if pipe.(tid) then
                  (* overlapped invocations: only the shared mu's
                     firing count separates them *)
                  max 0 ((ninst * (trc + 1)) - 1)
                else ninst * counted_bound ~waves:trc)
        in
        { tt_tid = tid; tt_name = t.tname; tt_ii; tt_trips = tr;
          tt_ninv = nv; tt_rmin = rmin tid; tt_bound;
          tt_pipelined = pipe.(tid); tt_dynamic = recursive.(tid) })
      (List.sort (fun (a : G.task) b -> compare a.tid b.tid) c.tasks)
  in
  let bound =
    List.fold_left
      (fun acc tt -> max acc tt.tt_bound)
      (rmin c.root) timings
  in
  { tasks = timings; bound }

(** The whole-run cycle lower bound alone (the DSE admission test). *)
let bound_cycles (c : G.circuit) : int = (analyze c).bound

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let binding_sref : binding -> G.struct_ref option = function
  | Bqueue tid -> Some (G.Rqueue tid)
  | Bmem sid -> Some (G.Rstruct sid)
  | Bbuffer _ | Bfu _ | Bring -> None

(** The bounded tasks' bindings ranked against the structure a
    profile measured as the dominant stall: each is paired with
    whether it names [measured], matches first, task order otherwise.
    The measurement comes in as a {!Muir_core.Graph.struct_ref}
    because the profiler sits above this library. *)
let rank_bindings (a : t) (measured : G.struct_ref option) :
    (bool * task_timing * binding) list =
  a.tasks
  |> List.filter_map (fun tt ->
         match tt.tt_ii with
         | Bounded { binding; _ } ->
           let hit = measured <> None && binding_sref binding = measured in
           Some (hit, tt, binding)
         | Unconstrained | Deadlocked _ -> None)
  |> List.stable_sort (fun (h1, _, _) (h2, _, _) -> compare h2 h1)

let binding_name (c : G.circuit) : binding -> string = function
  | Bqueue tid -> "queue:" ^ (G.task c tid).tname
  | Bmem sid -> (G.structure c sid).sname
  | Bbuffer eid -> Fmt.str "channel e%d" eid
  | Bfu nid -> Fmt.str "fu n%d" nid
  | Bring -> "dataflow ring"

(** The Dynamatic-style fix: which knob grows the binding resource. *)
let suggest (c : G.circuit) : binding -> string = function
  | Bqueue tid ->
    Fmt.str "widen task %s: -O tiling=N adds instances, -O queuing \
             deepens its queue"
      (G.task c tid).tname
  | Bmem sid -> (
    match (G.structure c sid).shape with
    | G.Cache _ -> "split the chain: -O cache-bank=N or -O localize"
    | G.Scratchpad _ -> "split the chain: -O spad-bank=N")
  | Bbuffer eid ->
    Fmt.str "grow channel e%d's capacity (op-fusion re-times the ring)"
      eid
  | Bfu nid -> Fmt.str "pipeline or replicate the unit at n%d" nid
  | Bring -> "shorten the ring: -O fusion collapses mu/steer stages"

let pp_cycle ppf (cycle : G.node_id list) =
  Fmt.pf ppf "%a"
    Fmt.(list ~sep:(any " -> ") (fun ppf n -> pf ppf "n%d" n))
    cycle

let pp_task (c : G.circuit) ppf (tt : task_timing) =
  Fmt.pf ppf "%-16s" tt.tt_name;
  (match tt.tt_ii with
  | Unconstrained -> Fmt.pf ppf " II>=1 (no ring)"
  | Deadlocked cyc -> Fmt.pf ppf " II=inf (deadlock: %a)" pp_cycle cyc
  | Bounded { num; den; cycle; binding } ->
    Fmt.pf ppf " II>=%d" ((num + den - 1) / den);
    if den <> 1 then Fmt.pf ppf " (%d/%d)" num den;
    Fmt.pf ppf "  binds %s  cycle %a" (binding_name c binding) pp_cycle
      cycle);
  (match tt.tt_trips with
  | Some tr -> Fmt.pf ppf "  trips=%d" tr
  | None -> ());
  if tt.tt_ninv > 0 then Fmt.pf ppf " ninv=%d" tt.tt_ninv;
  if tt.tt_dynamic then Fmt.pf ppf " dynamic";
  if tt.tt_pipelined then Fmt.pf ppf " pipelined";
  Fmt.pf ppf "  rmin=%d bound=%d" tt.tt_rmin tt.tt_bound

let report (c : G.circuit) ppf (a : t) =
  Fmt.pf ppf "@[<v>static timing of %s:@," c.cname;
  List.iter (fun tt -> Fmt.pf ppf "  %a@," (pp_task c) tt) a.tasks;
  Fmt.pf ppf "  whole-run lower bound: %d cycles@]" a.bound
