(** The structural μopt passes: task-block queuing (Pass 1), execution
    tiling (Pass 2), localized type-specific scratchpads (Pass 3 /
    §6.4 memory localization = Algorithm 2), scratchpad banking
    (Pass 4), and cache banking (§6.4).

    These passes never touch a task's internal dataflow; they
    re-parameterize the whole-accelerator graph — exactly the locality
    of change the paper's Table 4 quantifies (tiling a task touches
    one block node and its four boundary connections, independent of
    the task's internal size). *)

module G = Muir_core.Graph
module P = Muir_ir.Program

(** The largest tile or bank count the tiling and banking passes
    accept; the smallest is 1.  The greedy explorer widens up to 16
    tiles and 8 banks, and every other caller asks for 8 or fewer.
    The simulator builds one static instance per tile, so the bound
    also caps what one request can make it allocate. *)
let max_count = 16

(* The pass constructors check their counts here, the one point that
   [-O], the registry stacks and [Dse.Config.passes] all reach.
   @raise Invalid_argument naming the pass when [n] is outside
   [1, max_count] *)
let check_count ~(pass : string) ~(what : string) (n : int) : unit =
  if n < 1 || n > max_count then
    invalid_arg
      (Fmt.str "%s: %s=%d is outside [1, %d]" pass what n max_count)

(* ------------------------------------------------------------------ *)
(* Pass 1: task-block queuing                                           *)

(** Entries per task queue after the queuing pass. *)
let queue_depth = 16

(** Deepen the asynchronous task queues to [queue_depth] entries so
    producers and consumers of task invocations can proceed at
    different rates. *)
let task_queuing (c : G.circuit) : Pass.report =
  let touched = ref 0 in
  G.iter_tasks
    (fun t ->
      if t.queue_depth <> queue_depth then begin
        t.queue_depth <- queue_depth;
        incr touched
      end)
    c;
  (* per task: the queue block and its two (enqueue/dequeue) links *)
  Pass.report "task-queuing" ~nodes:!touched ~edges:(2 * !touched)
    ~detail:(Fmt.str "depth=%d on %d tasks" queue_depth !touched)

let queuing_pass () : Pass.t = { pname = "task-queuing"; prun = task_queuing }

(* ------------------------------------------------------------------ *)
(* Pass 2: execution tiling                                             *)

(** Replicate the execution units of the named task; by default every
    spawned task (and every dynamically-scheduled recursive task) is
    tiled — the ones with harvestable task-level parallelism.  With
    [scope = `All_loops], every loop task is tiled as well: concurrent
    invocations of an inner loop then run on parallel units, which is
    how the optimized accelerators issue more operations per cycle
    than a CPU (§6.6). *)
let execution_tiling ?task ?(scope = `Spawned) (c : G.circuit)
    ~(tiles : int) : Pass.report =
  (* By task id: spawned tasks are targets of SpawnChild nodes
     anywhere; [visited] marks the tasks tiled so far. *)
  let n = 1 + List.fold_left (fun m (t : G.task) -> max m t.tid) (-1) c.tasks in
  let spawned = Array.make n false and visited = Array.make n false in
  G.iter_tasks
    (fun t ->
      List.iter
        (fun (n : G.node) ->
          match n.kind with G.SpawnChild tid -> spawned.(tid) <- true | _ -> ())
        t.nodes)
    c;
  let eligible (t : G.task) =
    match task with
    | Some name -> t.tname = name
    | None -> (
      match scope with
      | `All_loops -> (
        match t.tkind with G.Tloop _ -> true | G.Tfunc -> false)
      | `Spawned -> spawned.(t.tid))
  in
  let touched = ref 0 in
  (* Tiling a task replicates its whole execution subtree: the loops
     and helpers a tile runs must be replicated with it, or they would
     re-serialize the tiles. *)
  let rec apply (t : G.task) =
    if not visited.(t.tid) then begin
      visited.(t.tid) <- true;
      if t.tiles < tiles then begin
        t.tiles <- tiles;
        incr touched
      end;
      List.iter (fun ch -> apply (G.task c ch)) t.children
    end
  in
  G.iter_tasks (fun t -> if eligible t then apply t) c;
  (* Replicating a task block touches the block node and its four
     boundary connections (task-in, task-out, mem request, mem
     response); the dispatcher crossbar is generated below μIR. *)
  Pass.report "execution-tiling" ~nodes:!touched ~edges:(4 * !touched)
    ~detail:(Fmt.str "%d tiles on %d tasks" tiles !touched)

let tiling_pass ?task ?scope ~tiles () : Pass.t =
  check_count ~pass:"execution-tiling" ~what:"tiles" tiles;
  { pname = "execution-tiling";
    prun = (fun c -> execution_tiling ?task ?scope c ~tiles) }

(* ------------------------------------------------------------------ *)
(* Pass 3: localized type-specific scratchpads (Algorithm 2)            *)

(** Memory-space analysis: which address spaces does each memory node
    use?  (The compiler-IR points-to ran during construction; node
    kinds already carry their space id, so this is the [Mem_groups]
    map of Algorithm 2.) *)
let memory_groups (c : G.circuit) : (G.space_id * G.node list) list =
  let groups = Hashtbl.create 8 in
  G.iter_tasks
    (fun t ->
      List.iter
        (fun (n : G.node) ->
          match G.node_space n with
          | Some sp ->
            Hashtbl.replace groups sp
              (n :: (try Hashtbl.find groups sp with Not_found -> []))
          | None -> ())
        t.nodes)
    c;
  Hashtbl.fold (fun sp ns acc -> (sp, ns) :: acc) groups []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** Give each (small enough) array its own local scratchpad instead of
    going through the shared cache, and route its memory operations
    there.  Arrays larger than [max_words] stay behind the cache.
    Each scratchpad answers in two cycles.  The simulator charges the
    DMA prefill for scratchpad contents. *)
let memory_localization ?(max_words = 8192) (c : G.circuit) : Pass.report =
  let groups = memory_groups c in
  let moved = ref 0 and routed = ref 0 in
  List.iter
    (fun (sp, ops) ->
      if sp <> 0 then begin
        let g =
          List.find_opt (fun (g : P.global) -> g.gspace = sp) c.prog.globals
        in
        match g with
        | Some g when g.gsize <= max_words ->
          let already_local =
            match (G.structure_of_space c sp).shape with
            | G.Scratchpad _ -> true
            | G.Cache _ -> false
          in
          if not already_local then begin
            let s =
              G.add_structure c ~sname:(Fmt.str "spad_%s" g.gname)
                (G.Scratchpad
                   { banks = 1; ports_per_bank = 1; latency = 2;
                     width_words = 1; wb_buffer = false })
            in
            G.bind_space c sp s.sid;
            incr moved;
            routed := !routed + List.length ops
          end
        | _ -> ()
      end)
    groups;
  (* one structure node per new scratchpad; each memory op re-routed
     is one connection change *)
  Pass.report "memory-localization" ~nodes:!moved ~edges:!routed
    ~detail:(Fmt.str "%d scratchpads, %d ops re-routed" !moved !routed)

let localization_pass () : Pass.t =
  { pname = "memory-localization"; prun = (fun c -> memory_localization c) }

(* ------------------------------------------------------------------ *)
(* Pass 4: scratchpad banking                                           *)

(** Raise scratchpad bank counts (word-interleaved, one port per bank)
    and widen the junctions of tasks that use them, so more requests
    are granted per cycle. *)
let scratchpad_banking ?(banks = 2) (c : G.circuit) : Pass.report =
  let touched = ref 0 in
  List.iter
    (fun (s : G.struct_inst) ->
      match s.shape with
      | G.Scratchpad p ->
        if p.banks <> banks || p.ports_per_bank <> 1 then begin
          p.banks <- banks;
          p.ports_per_bank <- 1;
          incr touched
        end
      | G.Cache _ -> ())
    c.structures;
  if !touched > 0 then
    G.iter_tasks
      (fun t ->
        if List.exists G.is_memory_node t.nodes then
          G.set_junction_width c t.tid
            (max (G.junction_width c t.tid) banks))
      c;
  Pass.report "scratchpad-banking" ~nodes:!touched ~edges:(2 * !touched)
    ~detail:(Fmt.str "%d banks on %d scratchpads" banks !touched)

let scratchpad_banking_pass ?banks () : Pass.t =
  Option.iter (check_count ~pass:"scratchpad-banking" ~what:"banks") banks;
  { pname = "scratchpad-banking";
    prun = (fun c -> scratchpad_banking ?banks c) }

(** Attach write-back buffers to the scratchpads: stores acknowledge
    in one cycle and drain in the background ("another option would be
    introducing a separate writeback buffer", Pass 3 §4). *)
let writeback_buffers (c : G.circuit) : Pass.report =
  let touched = ref 0 in
  List.iter
    (fun (s : G.struct_inst) ->
      match s.shape with
      | G.Scratchpad p when not p.wb_buffer ->
        p.wb_buffer <- true;
        incr touched
      | _ -> ())
    c.structures;
  Pass.report "writeback-buffer" ~nodes:!touched ~edges:!touched
    ~detail:(Fmt.str "%d scratchpads buffered" !touched)

let writeback_pass () : Pass.t =
  { pname = "writeback-buffer"; prun = writeback_buffers }

(* ------------------------------------------------------------------ *)
(* Cache banking (§6.4)                                                 *)

(** Bank the shared L1 cache (line-interleaved) to parallelize global
    accesses, widening junctions to match. *)
let cache_banking ?(banks = 2) (c : G.circuit) : Pass.report =
  let touched = ref 0 in
  List.iter
    (fun (s : G.struct_inst) ->
      match s.shape with
      | G.Cache p ->
        if p.banks <> banks then begin
          p.banks <- banks;
          incr touched
        end
      | G.Scratchpad _ -> ())
    c.structures;
  if !touched > 0 then
    G.iter_tasks
      (fun t ->
        if List.exists G.is_memory_node t.nodes then
          G.set_junction_width c t.tid
            (max (G.junction_width c t.tid) banks))
      c;
  Pass.report "cache-banking" ~nodes:!touched ~edges:(2 * !touched)
    ~detail:(Fmt.str "%d banks on %d caches" banks !touched)

let cache_banking_pass ?banks () : Pass.t =
  Option.iter (check_count ~pass:"cache-banking" ~what:"banks") banks;
  { pname = "cache-banking"; prun = (fun c -> cache_banking ?banks c) }
