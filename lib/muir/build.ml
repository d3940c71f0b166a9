(** Construction of the baseline μIR circuit from compiler IR —
    the front half of the toolchain (Algorithm 1 in the paper).

    Stage 1 walks the program and creates one task block per function
    and per loop (loops and calls are the dynamically-scheduled region
    boundaries).  Stage 2 lowers each task's basic blocks to a
    predicated hyperblock dataflow:

    - block predicates become boolean dataflow;
    - phis at if-joins become [Merge] nodes selected by edge
      predicates;
    - loop-header phis become the classic dataflow loop schema
      ([MergeLoop] "μ" nodes primed by an initial control token, with
      [Steer] switches routing carried values either around the back
      edge or out to the live-outs — Arvind-and-Nikhil style);
    - inner loops and calls collapse to [CallChild] request/response
      super-nodes; Cilk spawns become [SpawnChild]+[SyncWait];
    - memory ops get conservative same-space ordering chains so that
      pipelined iterations never violate program memory order. *)

module G = Graph
module F = Muir_ir.Func
module I = Muir_ir.Instr
module T = Muir_ir.Types
module P = Muir_ir.Program
module Access = Muir_ir.Access

type port = G.node_id * int

(* Membership in the int lists of labels, registers, task and space
   ids, without the polymorphic compare of [List.mem]. *)
let rec mem_int (x : int) = function
  | [] -> false
  | y :: l -> x = y || mem_int x l

(* Stage 2 holds a task's nodes and edges newest first, so each new
   one is consed on; [circuit] restores creation order, which
   {!Graph.digest} reads, once the task is built.  {!Graph.node} finds
   a node by id in either order. *)
let add_node (t : G.task) ?label ~ty kind ~nins : G.node =
  let n = G.new_node t ?label ~ty kind ~nins in
  t.nodes <- n :: t.nodes;
  n

let connect ?capacity ?initial (t : G.task) ~src ~dst : G.edge =
  let e = G.new_edge ?capacity ?initial t ~src ~dst in
  t.edges <- e :: t.edges;
  e

type st = {
  prog : P.t;
  mutable tasks : G.task list;
  mutable next_tid : int;
  func_task : (string, G.task_id) Hashtbl.t;
  loop_task : (string * I.label, G.task_id) Hashtbl.t;
  livein_regs : (G.task_id, I.reg list) Hashtbl.t;
  liveout_regs : (G.task_id, I.reg list) Hashtbl.t;
  mem : Access.t;  (** the access analysis: address forms, footprints *)
}

(* ------------------------------------------------------------------ *)
(* Per-function helpers                                                 *)

let reg_types (f : F.t) : (I.reg, T.ty) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter (fun (p : F.param) -> Hashtbl.replace h p.preg p.pty) f.params;
  F.iter_instrs (fun ins -> Hashtbl.replace h ins.I.id ins.I.ty) f;
  h

(** Registers used within the given blocks (instruction operands and
    terminator conditions). *)
let uses_in_blocks (f : F.t) (labels : I.label list) : I.reg list =
  let acc = ref [] in
  List.iter
    (fun l ->
      let b = F.block f l in
      List.iter (fun ins -> acc := I.used_regs ins @ !acc) b.instrs;
      acc := I.term_used_regs b.term @ !acc)
    labels;
  List.sort_uniq Int.compare !acc

let defs_in_blocks (f : F.t) (labels : I.label list) : I.reg list =
  let acc = ref [] in
  List.iter
    (fun l ->
      let b = F.block f l in
      List.iter (fun (ins : I.t) -> acc := ins.id :: !acc) b.instrs)
    labels;
  List.sort_uniq Int.compare !acc

(** Loops directly nested inside [lp] (or at top level if [lp=None]). *)
let direct_inner_loops (f : F.t) (lp : F.loop_info option) :
    F.loop_info list =
  match lp with
  | None -> List.filter (fun (l : F.loop_info) -> l.depth = 1) f.loops
  | Some outer ->
    List.filter
      (fun (l : F.loop_info) ->
        l.depth = outer.depth + 1 && mem_int l.header outer.body)
      f.loops

(** Region blocks of a task: for a function, everything outside any
    loop; for a loop, its body minus the bodies of directly-inner
    loops (whose blocks belong to the child tasks). *)
let region_blocks (f : F.t) (lp : F.loop_info option) : I.label list =
  match lp with
  | None ->
    List.filter_map
      (fun (b : F.block) ->
        if List.exists (fun (l : F.loop_info) -> mem_int b.label l.body)
             f.loops
        then None
        else Some b.label)
      f.blocks
  | Some outer ->
    let inner = direct_inner_loops f (Some outer) in
    List.filter
      (fun l ->
        not
          (List.exists (fun (il : F.loop_info) -> mem_int l il.body) inner))
      outer.body

(** Live-in registers of loop [lp]: used inside, defined outside. *)
let loop_liveins (f : F.t) (lp : F.loop_info) : I.reg list =
  let uses = uses_in_blocks f lp.body in
  let defs = defs_in_blocks f lp.body in
  List.filter (fun r -> not (mem_int r defs)) uses

(** Live-out registers of loop [lp]: header phis used outside. *)
let loop_liveouts (f : F.t) (lp : F.loop_info) : I.reg list =
  let header = F.block f lp.header in
  let phis =
    List.filter_map
      (fun (ins : I.t) ->
        match ins.kind with Phi _ -> Some ins.id | _ -> None)
      header.instrs
  in
  let outside =
    List.filter (fun (b : F.block) -> not (mem_int b.label lp.body)) f.blocks
  in
  let used_outside r =
    List.exists
      (fun (b : F.block) ->
        List.exists (fun ins -> mem_int r (I.used_regs ins)) b.instrs
        || mem_int r (I.term_used_regs b.term))
      outside
  in
  List.filter used_outside phis

let global_base (st : st) (g : string) = (P.find_global st.prog g).gbase

(** The space of a global array; 0, the unified global space, when the
    array is unknown. *)
let space_id (st : st) : string option -> int = function
  | Some g -> (P.find_global st.prog g).gspace
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Stage 1: enumerate tasks                                             *)

let task_of_loop_name (f : F.t) (lp : F.loop_info) =
  Fmt.str "%s.loop%d" f.name lp.header

let stage1 (st : st) =
  List.iter
    (fun (f : F.t) ->
      let rty = reg_types f in
      let ty_of r =
        match Hashtbl.find_opt rty r with
        | Some t -> t
        | None -> invalid_arg (Fmt.str "Build: unknown reg %%%d in %s" r f.name)
      in
      (* Function task. *)
      let ftid = st.next_tid in
      st.next_tid <- ftid + 1;
      let res_tys =
        T.TBool :: (if T.equal_ty f.ret T.TUnit then [] else [ f.ret ])
      in
      let ft =
        G.new_task ~tid:ftid ~tname:f.name ~tkind:G.Tfunc
          ~arg_tys:(T.TBool :: F.param_tys f)
          ~res_tys
      in
      Hashtbl.replace st.func_task f.name ftid;
      Hashtbl.replace st.livein_regs ftid (F.param_regs f);
      Hashtbl.replace st.liveout_regs ftid [];
      st.tasks <- st.tasks @ [ ft ];
      (* One task per loop. *)
      List.iter
        (fun (lp : F.loop_info) ->
          let tid = st.next_tid in
          st.next_tid <- tid + 1;
          let liveins = loop_liveins f lp in
          let liveouts = loop_liveouts f lp in
          let t =
            G.new_task ~tid
              ~tname:(task_of_loop_name f lp)
              ~tkind:(G.Tloop { parallel = lp.parallel })
              ~arg_tys:(T.TBool :: List.map ty_of liveins)
              ~res_tys:(T.TBool :: List.map ty_of liveouts)
          in
          Hashtbl.replace st.loop_task (f.name, lp.header) tid;
          Hashtbl.replace st.livein_regs tid liveins;
          Hashtbl.replace st.liveout_regs tid liveouts;
          st.tasks <- st.tasks @ [ t ])
        f.loops)
    st.prog.funcs

(* ------------------------------------------------------------------ *)
(* Stage 2: dataflow construction per task                              *)

type rctx = {
  st : st;
  f : F.t;
  gt : G.task;
  def : (I.reg, port) Hashtbl.t;
  blk_pred : (I.label, port) Hashtbl.t;
  edge_pred : (I.label * I.label, port) Hashtbl.t;
  rty : (I.reg, T.ty) Hashtbl.t;
  mutable rets : (port * [ `Port of port | `Imm of T.value ] option) list;
  mutable mem_order : ((int * bool) list * port * Access.form option) list;
      (** (touched (space, writes?) list, done port, address form),
          program order (reversed).  Entries are plain memory ops or
          collapsed calls whose children touch memory. *)
  mutable has_store : int list;  (** spaces written in this task *)
  mutable sync_order : port option;
  inner_exit : (I.label, I.label) Hashtbl.t;
}

type inp = [ `Port of port | `Imm of T.value ]

(** Create a node; wire ports/immediates; if every input is immediate,
    append a trigger input wired to [trigger] so the node fires once
    per wave. *)
let mk (ctx : rctx) ?(label = "") ~(ty : T.ty) (kind : G.node_kind)
    (inputs : inp list) ~(trigger : port) : G.node =
  let has_wire = List.exists (function `Port _ -> true | `Imm _ -> false) inputs in
  let inputs = if has_wire then inputs else inputs @ [ `Port trigger ] in
  let n = add_node ctx.gt ~label ~ty kind ~nins:(List.length inputs) in
  List.iteri
    (fun i -> function
      | `Imm v -> G.set_imm n i v
      | `Port p -> ignore (connect ctx.gt ~src:p ~dst:(n.nid, i)))
    inputs;
  n

(** Wire [p] into a new last input of [n]. *)
let add_input ?initial (ctx : rctx) (n : G.node) (p : port) =
  let i = Array.length n.ins in
  n.ins <- Array.append n.ins [| G.Swire |];
  ignore (connect ?initial ctx.gt ~src:p ~dst:(n.nid, i))

(** The pending sync-ordering input, which a memory node, call or
    spawn takes after its own inputs. *)
let after_sync (ctx : rctx) : inp list =
  match ctx.sync_order with Some p -> [ `Port p ] | None -> []

let slot_of (ctx : rctx) (op : I.operand) : inp =
  match op with
  | Reg r -> (
    match Hashtbl.find_opt ctx.def r with
    | Some p -> `Port p
    | None ->
      invalid_arg
        (Fmt.str "Build: no dataflow def for %%%d in task %s" r
           ctx.gt.tname))
  | CInt i -> `Imm (VInt i)
  | CBool b -> `Imm (VBool b)
  | CFloat f -> `Imm (VFloat f)
  | GlobalAddr g -> `Imm (VInt (Int64.of_int (global_base ctx.st g)))

let p_and ctx a b ~trigger =
  (mk ctx ~ty:T.TBool (Compute (Fibin And)) [ a; b ] ~trigger).nid, 0

let p_or ctx a b ~trigger =
  (mk ctx ~ty:T.TBool (Compute (Fibin Or)) [ a; b ] ~trigger).nid, 0

let p_not ctx a ~trigger =
  (mk ctx ~ty:T.TBool (Compute (Fibin Xor)) [ a; `Imm (T.VInt 1L) ] ~trigger)
    .nid, 0

let ty_of_reg ctx r =
  match Hashtbl.find_opt ctx.rty r with Some t -> t | None -> T.i32

(** Region successors of a block, with inner loops collapsed to their
    exit blocks and back edges removed. *)
let region_succ (ctx : rctx) ~(region : I.label list)
    ~(own_header : I.label option) (b : F.block) : I.label list =
  let adjust l =
    match own_header with
    | Some h when h = l -> None (* back edge of this loop task *)
    | _ -> (
      match Hashtbl.find_opt ctx.inner_exit l with
      | Some exit -> Some exit (* through the collapsed inner loop *)
      | None -> if mem_int l region then Some l else None)
  in
  List.filter_map adjust (F.successors b)

let topo_order (ctx : rctx) ~(region : I.label list)
    ~(own_header : I.label option) ~(entry : I.label) : I.label list =
  let indeg = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace indeg l 0) region;
  List.iter
    (fun l ->
      List.iter
        (fun s ->
          Hashtbl.replace indeg s (1 + try Hashtbl.find indeg s with Not_found -> 0))
        (region_succ ctx ~region ~own_header (F.block ctx.f l)))
    region;
  let ready = Queue.create () in
  (* The entry first; any other zero-indegree block would be dead. *)
  Queue.add entry ready;
  let out = ref [] in
  let seen = Hashtbl.create 16 in
  while not (Queue.is_empty ready) do
    let l = Queue.pop ready in
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.add seen l ();
      out := l :: !out;
      List.iter
        (fun s ->
          let d = Hashtbl.find indeg s - 1 in
          Hashtbl.replace indeg s d;
          if d = 0 then Queue.add s ready)
        (region_succ ctx ~region ~own_header (F.block ctx.f l))
    end
  done;
  List.rev !out

(** Region predecessors (after collapsing), as (pred_label, this). *)
let region_preds (ctx : rctx) ~(region : I.label list)
    ~(own_header : I.label option) (l : I.label) : I.label list =
  List.filter
    (fun p ->
      mem_int l (region_succ ctx ~region ~own_header (F.block ctx.f p)))
    region

(* --- instruction lowering ------------------------------------------- *)

let fu_of_kind (k : I.kind) : G.fu_op =
  match k with
  | Bin (op, _, _) -> Fibin op
  | Fbin (op, _, _) -> Ffbin op
  | Icmp (op, _, _) -> Ficmp op
  | Fcmp (op, _, _) -> Ffcmp op
  | Funary (op, _) -> Ffunary op
  | Cast (op, _) -> Fcast op
  | Select _ -> Fselect
  | Gep { scale; _ } -> Fgep scale
  | _ -> invalid_arg "fu_of_kind: not a pure op"

(** Record a collapsed call — of function [`Func callee], or of the
    loop whose body is [`Body labels] — in the ordering chains when its
    child subtree touches memory.  Its footprint follows calls only:
    Cilk's race-freedom contract means spawned effects are ordered by
    [sync], not by the memory-order chains. *)
let note_call (ctx : rctx) (n : G.node) target =
  let touch =
    match target with
    | `Func callee -> Access.footprint ctx.st.mem ~spawns:false callee
    | `Body labels -> Access.touch ctx.st.mem ~spawns:false ctx.f labels
  in
  match List.map (fun (g, w) -> (space_id ctx.st g, w)) touch with
  | [] -> ()
  | touches ->
    ctx.mem_order <- (touches, (n.nid, 0), None) :: ctx.mem_order;
    List.iter
      (fun (sp, w) ->
        if w && not (mem_int sp ctx.has_store) then
          ctx.has_store <- sp :: ctx.has_store)
      touches

(** Record a memory node for the ordering chains. *)
let note_memory (ctx : rctx) (space : int) (n : G.node) ~is_store
    ~(form : Access.form option) =
  ctx.mem_order <-
    ([ (space, is_store) ], (n.nid, G.mem_done n), form) :: ctx.mem_order;
  if is_store && not (mem_int space ctx.has_store) then
    ctx.has_store <- space :: ctx.has_store

let lower_instr (ctx : rctx) ~(pred : port) (ins : I.t) : unit =
  let bind p = Hashtbl.replace ctx.def ins.id p in
  (* A memory node takes [pred; addr; rest..], in the order of
     {!G.mem_addr} and the roles after it. *)
  let memory ?label addr rest kind_of =
    let a = Option.get (Access.access ctx.st.mem ctx.f ins) in
    let space = space_id ctx.st a.space and is_store = a.write in
    let n =
      mk ctx ?label ~ty:(if is_store then T.TUnit else ins.ty) (kind_of space)
        ((`Port pred :: List.map (slot_of ctx) (addr :: rest)) @ after_sync ctx)
        ~trigger:pred
    in
    note_memory ctx space n ~is_store ~form:a.form;
    if not is_store then bind (n.nid, G.load_data)
  in
  let tensor top args =
    let n =
      mk ctx ~ty:ins.ty (Tcompute { top; dedicated = false })
        (List.map (slot_of ctx) args) ~trigger:pred
    in
    bind (n.nid, 0)
  in
  match ins.kind with
  | Bin _ | Fbin _ | Icmp _ | Fcmp _ | Funary _ | Cast _ | Select _ | Gep _
    ->
    let n =
      mk ctx ~ty:ins.ty
        (Compute (fu_of_kind ins.kind))
        (List.map (slot_of ctx) (I.operands ins))
        ~trigger:pred
        ~label:(Fmt.str "%%%d" ins.id)
    in
    bind (n.nid, 0)
  | Phi _ -> invalid_arg "lower_instr: phi handled at block level"
  | Load { addr } ->
    memory ~label:(Fmt.str "%%%d" ins.id) addr [] (fun space ->
        Load { space })
  | Store { addr; value } ->
    memory addr [ value ] (fun space -> Store { space })
  | Tload { addr; row_stride; shape } ->
    memory addr [ row_stride ] (fun space -> Tload { space; shape })
  | Tstore { addr; row_stride; value; shape } ->
    memory addr [ row_stride; value ] (fun space -> Tstore { space; shape })
  | Tbin (op, a, b) ->
    tensor (match op with I.Tmul -> G.Tmul2 | I.Tadd -> G.Tadd2) [ a; b ]
  | Tunary (I.Trelu, a) -> tensor G.Trelu2 [ a ]
  | Call { callee; args } ->
    let tid = Hashtbl.find ctx.st.func_task callee in
    let n =
      mk ctx ~ty:T.TBool (CallChild tid)
        ((`Port pred :: List.map (slot_of ctx) args) @ after_sync ctx)
        ~trigger:pred ~label:("call " ^ callee)
    in
    note_call ctx n (`Func callee);
    if not (mem_int tid ctx.gt.children) then
      ctx.gt.children <- ctx.gt.children @ [ tid ];
    if not (T.equal_ty ins.ty T.TUnit) then bind (n.nid, 1)
  | Spawn { callee; args } ->
    let tid = Hashtbl.find ctx.st.func_task callee in
    let n =
      mk ctx ~ty:ins.ty (SpawnChild tid)
        ((`Port pred :: List.map (slot_of ctx) args) @ after_sync ctx)
        ~trigger:pred ~label:("spawn " ^ callee)
    in
    if not (mem_int tid ctx.gt.children) then
      ctx.gt.children <- ctx.gt.children @ [ tid ];
    if not (T.equal_ty ins.ty T.TUnit) then bind (n.nid, 0)
  | Sync ->
    let n = mk ctx ~ty:T.TBool SyncWait [ `Port pred ] ~trigger:pred in
    ctx.sync_order <- Some (n.nid, 0)

(** Lower an inner loop [lp] reached from region block [b]: collapse
    it to a [CallChild] super-node and record the collapsed edge
    predicate (the call's done token). *)
let lower_inner_loop (ctx : rctx) ~(pred : port) (lp : F.loop_info)
    (b : I.label) : unit =
  let tid = Hashtbl.find ctx.st.loop_task (ctx.f.name, lp.header) in
  let liveins = Hashtbl.find ctx.st.livein_regs tid in
  let liveouts = Hashtbl.find ctx.st.liveout_regs tid in
  let n =
    mk ctx ~ty:T.TBool (CallChild tid)
      ((`Port pred :: List.map (fun r -> slot_of ctx (I.Reg r)) liveins)
       @ after_sync ctx)
      ~trigger:pred
      ~label:(Fmt.str "loop bb%d" lp.header)
  in
  note_call ctx n (`Body lp.body);
  if not (mem_int tid ctx.gt.children) then
    ctx.gt.children <- ctx.gt.children @ [ tid ];
  List.iteri (fun i r -> Hashtbl.replace ctx.def r (n.nid, i + 1)) liveouts;
  Hashtbl.replace ctx.edge_pred (b, lp.exit) (n.nid, 0)

(** Process one region block: compute its predicate, lower phis as
    merges, lower instructions, handle the terminator. *)
let lower_block (ctx : rctx) ~(region : I.label list)
    ~(own_header : I.label option) ~(entry_pred : port) ~(entry : I.label)
    (l : I.label) : unit =
  let b = F.block ctx.f l in
  (* Block predicate: OR of incoming edge predicates. *)
  let preds_in = region_preds ctx ~region ~own_header l in
  let pred =
    if l = entry then entry_pred
    else begin
      let eps =
        List.map
          (fun p ->
            match Hashtbl.find_opt ctx.edge_pred (p, l) with
            | Some ep -> ep
            | None ->
              invalid_arg
                (Fmt.str "Build: missing edge pred bb%d->bb%d in %s" p l
                   ctx.gt.tname))
          preds_in
      in
      match eps with
      | [] -> entry_pred (* unreachable block; keep it inert *)
      | [ e ] -> e
      | e :: rest ->
        List.fold_left
          (fun acc ep -> p_or ctx (`Port acc) (`Port ep) ~trigger:entry_pred)
          e rest
    end
  in
  Hashtbl.replace ctx.blk_pred l pred;
  (* Phis (if-joins): k-way merges keyed on incoming edge predicates. *)
  let phis, instrs =
    List.partition
      (fun (ins : I.t) -> match ins.kind with Phi _ -> true | _ -> false)
      b.instrs
  in
  List.iter
    (fun (ins : I.t) ->
      match ins.kind with
      | Phi incoming ->
        let incoming =
          List.filter (fun (src, _) -> mem_int src preds_in) incoming
        in
        let k = List.length incoming in
        if k = 1 then
          (* Degenerate merge: value passes through. *)
          let v = slot_of ctx (snd (List.hd incoming)) in
          let n =
            mk ctx ~ty:ins.ty (Compute Fident) [ v ] ~trigger:pred
              ~label:(Fmt.str "%%%d" ins.id)
          in
          Hashtbl.replace ctx.def ins.id (n.nid, 0)
        else begin
          let eps =
            List.map
              (fun (src, _) -> `Port (Hashtbl.find ctx.edge_pred (src, l)))
              incoming
          in
          let vals = List.map (fun (_, op) -> slot_of ctx op) incoming in
          let n =
            mk ctx ~ty:ins.ty (Merge k) (eps @ vals) ~trigger:pred
              ~label:(Fmt.str "%%%d" ins.id)
          in
          Hashtbl.replace ctx.def ins.id (n.nid, 0)
        end
      | _ -> assert false)
    phis;
  List.iter (fun ins -> lower_instr ctx ~pred ins) instrs;
  (* Terminator: record edge predicates / returns / inner-loop calls. *)
  match b.term with
  | Br tgt -> (
    match
      List.find_opt
        (fun (lp : F.loop_info) -> lp.header = tgt)
        ctx.f.loops
    with
    | Some lp when Hashtbl.mem ctx.inner_exit tgt ->
      lower_inner_loop ctx ~pred lp l
    | _ -> (
      match own_header with
      | Some h when h = tgt -> () (* loop back edge: handled by steers *)
      | _ -> Hashtbl.replace ctx.edge_pred (l, tgt) pred))
  | CondBr (c, t, e) ->
    let pc = slot_of ctx c in
    let p_t = p_and ctx (`Port pred) pc ~trigger:pred in
    let p_f =
      p_and ctx (`Port pred) (`Port (p_not ctx pc ~trigger:pred)) ~trigger:pred
    in
    Hashtbl.replace ctx.edge_pred (l, t) p_t;
    Hashtbl.replace ctx.edge_pred (l, e) p_f
  | Ret None -> ctx.rets <- (pred, None) :: ctx.rets
  | Ret (Some op) -> ctx.rets <- (pred, Some (slot_of ctx op)) :: ctx.rets

(** Add the per-space memory ordering chains.  A space needs no
    serializing chain when its accesses pass {!Access}'s
    cross-wave test, with a leaf's per-wave [step] and whether it is
    [invariant] in the task: successive waves then touch distinct
    addresses (and the same-wave load-before-store order is a value
    dependence already present in the dataflow). *)
let add_memory_chains (ctx : rctx) ~step ~invariant =
  let ops = List.rev ctx.mem_order in
  let spaces_written = ctx.has_store in
  let touches_space touches s =
    List.exists (fun (sp, _) -> sp = s || sp = 0) touches
  in
  let space_independent s =
    Access.distinct_waves ~step ~invariant
      (List.filter_map
         (fun (touches, _, aff) ->
           if touches_space touches s then Some aff else None)
         ops)
  in
  let is_call (p : port) =
    match (G.node ctx.gt (fst p)).kind with
    | G.CallChild _ -> true
    | _ -> false
  in
  let self_chain (single : port) =
    (* One collapsed call per wave whose child writes this space:
       successive invocations may self-conflict (e.g. successive FFT
       stages), so wave k+1's call waits for wave k's completion.  A
       plain single store needs nothing — per-bank FIFO order
       suffices. *)
    add_input ctx (G.node ctx.gt (fst single)) single
      ~initial:[ T.VBool true ]
  in
  let chain (dones : port list) =
    match dones with
    | [] -> ()
    | [ single ] -> if is_call single then self_chain single
    | first :: _ ->
      let rec link = function
        | a :: (b :: _ as rest) ->
          add_input ctx (G.node ctx.gt (fst b)) a;
          link rest
        | [ last ] ->
          (* Cyclic: the first op of wave k+1 waits for the last op of
             wave k; an initial token lets wave 0 proceed. *)
          add_input ctx (G.node ctx.gt (fst first)) last
            ~initial:[ T.VBool true ]
        | [] -> ()
      in
      link dones
  in
  if mem_int 0 spaces_written then
    (* A store through an unidentified pointer may alias anything:
       serialize every memory operation in the task. *)
    chain (List.map (fun (_, d, _) -> d) ops)
  else begin
    (* An entry may belong to several space chains (calls touching
       many arrays): chain each space separately but never add the
       same ordering edge twice. *)
    let linked = Hashtbl.create 16 in
    let chain_once dones =
      let key = List.map fst dones in
      if not (Hashtbl.mem linked key) then begin
        Hashtbl.add linked key ();
        chain dones
      end
    in
    List.iter
      (fun s ->
        if not (space_independent s) then
          chain_once
            (List.filter_map
               (fun (touches, d, _) ->
                 if touches_space touches s then Some d else None)
               ops))
      spaces_written
  end

(** Emit the function-task live-outs from the collected returns. *)
let emit_func_liveouts (ctx : rctx) ~(entry_pred : port) =
  let has_value = List.length ctx.gt.res_tys > 1 in
  let rets = List.rev ctx.rets in
  let done_port, value_port =
    match rets with
    | [] ->
      (* No explicit return: done = entry token. *)
      (entry_pred, None)
    | [ (p, v) ] -> (p, v)
    | many ->
      let k = List.length many in
      let preds = List.map (fun (p, _) -> `Port p) many in
      let dn =
        mk ctx ~ty:T.TBool (Merge k) (preds @ preds) ~trigger:entry_pred
          ~label:"ret.token"
      in
      let v =
        if has_value then begin
          let vals =
            List.map
              (fun (_, v) ->
                match v with
                | Some s -> s
                | None -> `Imm (T.VInt 0L))
              many
          in
          let vn =
            mk ctx
              ~ty:(List.nth ctx.gt.res_tys 1)
              (Merge k) (preds @ vals) ~trigger:entry_pred ~label:"ret.value"
          in
          Some (`Port ((vn.nid, 0) : port))
        end
        else None
      in
      ((dn.nid, 0), v)
  in
  let lo0 =
    mk ctx ~ty:T.TBool (LiveOut 0) [ `Port done_port ] ~trigger:entry_pred
  in
  ignore lo0;
  if has_value then begin
    let v =
      match value_port with
      | Some s -> s
      | None -> `Imm (T.VInt 0L)
    in
    ignore
      (mk ctx
         ~ty:(List.nth ctx.gt.res_tys 1)
         (LiveOut 1) [ v ] ~trigger:entry_pred)
  end

(** A task's stage-2 context; [lp] is the loop the task runs, if any. *)
let new_ctx (st : st) (f : F.t) (lp : F.loop_info option) (gt : G.task) =
  let inner_exit = Hashtbl.create 8 in
  List.iter
    (fun (il : F.loop_info) -> Hashtbl.replace inner_exit il.header il.exit)
    (direct_inner_loops f lp);
  { st; f; gt; def = Hashtbl.create 64; blk_pred = Hashtbl.create 16;
    edge_pred = Hashtbl.create 16; rty = reg_types f; rets = [];
    mem_order = []; has_store = []; sync_order = None; inner_exit }

(** Build the dataflow of a function task. *)
let build_func_task (st : st) (f : F.t) (gt : G.task) =
  let ctx = new_ctx st f None gt in
  (* Live-ins: token + parameters. *)
  let token =
    add_node gt ~ty:T.TBool (LiveIn 0) ~nins:0 ~label:"task.token"
  in
  let entry_pred = (token.nid, 0) in
  List.iteri
    (fun i (p : F.param) ->
      let n =
        add_node gt ~ty:p.pty (LiveIn (i + 1)) ~nins:0 ~label:p.pname
      in
      Hashtbl.replace ctx.def p.preg (n.nid, 0))
    f.params;
  let region = region_blocks f None in
  let entry = (F.entry f).label in
  let order = topo_order ctx ~region ~own_header:None ~entry in
  List.iter
    (fun l -> lower_block ctx ~region ~own_header:None ~entry_pred ~entry l)
    order;
  (* A function task's waves are its invocations, which its callers
     already order: a call to a function that writes memory waits for
     the previous one to finish, and Cilk's contract orders spawned
     invocations by [sync].  That ordering, not this chain, keeps
     invocations apart, so the test here only decides where a chain
     stays: with a unit step per parameter and nothing invariant, a
     space keeps its chain unless one form over the parameters alone
     has a nonzero net stride, a rule kept because it leaves the
     pinned registry circuits unchanged. *)
  let params = F.param_regs f in
  add_memory_chains ctx
    ~step:(fun (_, r) -> if mem_int r params then Some 1 else None)
    ~invariant:(fun _ -> false);
  emit_func_liveouts ctx ~entry_pred

(** Build the dataflow of a loop task using the μ/steer loop schema. *)
let build_loop_task (st : st) (f : F.t) (lp : F.loop_info) (gt : G.task) =
  let ctx = new_ctx st f (Some lp) gt in
  let liveins = Hashtbl.find st.livein_regs gt.tid in
  let liveouts = Hashtbl.find st.liveout_regs gt.tid in
  (* Live-in nodes. *)
  let token =
    add_node gt ~ty:T.TBool (LiveIn 0) ~nins:0 ~label:"task.token"
  in
  let livein_node =
    List.mapi
      (fun i r ->
        let n =
          add_node gt ~ty:(ty_of_reg ctx r) (LiveIn (i + 1)) ~nins:0
            ~label:(Fmt.str "%%%d" r)
        in
        (r, n))
      liveins
  in
  (* Header phis: carried variables. *)
  let header_blk = F.block f lp.header in
  let phis =
    List.filter_map
      (fun (ins : I.t) ->
        match ins.kind with
        | Phi incoming ->
          let init =
            match List.assoc_opt lp.preheader incoming with
            | Some op -> op
            | None -> invalid_arg "Build: loop phi missing preheader incoming"
          in
          let back =
            match List.assoc_opt lp.latch incoming with
            | Some op -> op
            | None -> invalid_arg "Build: loop phi missing latch incoming"
          in
          Some (ins.id, ins.ty, init, back)
        | _ -> None)
      header_blk.instrs
  in
  (* The token is carried variable 0. *)
  let mu_tok =
    add_node gt ~ty:T.TBool MergeLoop ~nins:3 ~label:"mu.token"
  in
  ignore (connect gt ~src:(token.nid, 0) ~dst:(mu_tok.nid, G.mu_init));
  (* μ node per header phi.  A constant initial value must still be
     delivered exactly once per invocation, so it is materialized by a
     pass-through node triggered by the invocation token. *)
  let const_init (mu : G.node) (v : T.value) =
    let cn =
      add_node gt ~ty:mu.nty (Compute Fident) ~nins:2 ~label:"init.const"
    in
    G.set_imm cn 0 v;
    ignore (connect gt ~src:(token.nid, 0) ~dst:(cn.nid, 1));
    ignore (connect gt ~src:(cn.nid, 0) ~dst:(mu.nid, G.mu_init))
  in
  let mus =
    List.map
      (fun (r, ty, init, back) ->
        let mu =
          add_node gt ~ty MergeLoop ~nins:3 ~label:(Fmt.str "mu %%%d" r)
        in
        (match init with
        | I.Reg ri ->
          let _, li = List.find (fun (x, _) -> x = ri) livein_node in
          ignore (connect gt ~src:(li.nid, 0) ~dst:(mu.nid, G.mu_init))
        | I.CInt i -> const_init mu (VInt i)
        | I.CBool b -> const_init mu (VBool b)
        | I.CFloat x -> const_init mu (VFloat x)
        | I.GlobalAddr g ->
          const_init mu (VInt (Int64.of_int (global_base st g))));
        Hashtbl.replace ctx.def r (mu.nid, 0);
        (r, mu, back))
      phis
  in
  (* Invariant live-ins used directly by region instructions also get a
     μ ring so each iteration re-receives their value. *)
  let region = region_blocks f (Some lp) in
  let region_uses =
    let base = uses_in_blocks f region in
    (* plus live-ins that inner loops consume *)
    let inner =
      Hashtbl.fold
        (fun hdr _ acc ->
          let tid = Hashtbl.find st.loop_task (f.name, hdr) in
          Hashtbl.find st.livein_regs tid @ acc)
        ctx.inner_exit []
    in
    List.sort_uniq Int.compare (base @ inner)
  in
  let invariants =
    List.filter
      (fun r ->
        mem_int r region_uses
        && not (List.exists (fun (pr, _, _, _) -> pr = r) phis))
      liveins
  in
  let inv_mus =
    List.map
      (fun r ->
        let _, li = List.find (fun (x, _) -> x = r) livein_node in
        let mu =
          add_node gt ~ty:(ty_of_reg ctx r) MergeLoop ~nins:3
            ~label:(Fmt.str "mu.inv %%%d" r)
        in
        ignore (connect gt ~src:(li.nid, 0) ~dst:(mu.nid, G.mu_init));
        Hashtbl.replace ctx.def r (mu.nid, 0);
        mu)
      invariants
  in
  (* Lower the region, entry = header.  The header's phis were already
     consumed above; lower_block skips phis when the def is present. *)
  let entry_pred = (mu_tok.nid, 0) in
  Hashtbl.replace ctx.blk_pred lp.header entry_pred;
  (* Header instructions (condition computation). *)
  let header_instrs =
    List.filter
      (fun (ins : I.t) -> match ins.kind with Phi _ -> false | _ -> true)
      header_blk.instrs
  in
  List.iter (fun ins -> lower_instr ctx ~pred:entry_pred ins) header_instrs;
  let body_entry, p_port =
    match header_blk.term with
    | CondBr (c, t, _e) ->
      let pc = slot_of ctx c in
      let p =
        match pc with
        | `Port p -> p
        | `Imm _ ->
          (* Constant loop condition: materialize it per iteration. *)
          (mk ctx ~ty:T.TBool (Compute Fident) [ pc ] ~trigger:entry_pred)
            .nid, 0
      in
      (t, p)
    | _ -> invalid_arg "Build: loop header must end in a conditional branch"
  in
  Hashtbl.replace ctx.edge_pred (lp.header, body_entry) p_port;
  (* Remaining region blocks in topological order. *)
  let order =
    topo_order ctx ~region ~own_header:(Some lp.header) ~entry:lp.header
  in
  List.iter
    (fun l ->
      if l <> lp.header then
        lower_block ctx ~region ~own_header:(Some lp.header) ~entry_pred
          ~entry:lp.header l)
    order;
  let ivs = Muir_ir.Loops.inductions f lp in
  let body_defs = defs_in_blocks f lp.body in
  add_memory_chains ctx
    ~step:(fun (_, r) -> List.assoc_opt r ivs)
    ~invariant:(fun (_, r) -> not (mem_int r body_defs));
  (* Steers: route carried values around the back edge (the loop
     predicate holds) or out (it does not). *)
  let steer ?(label = "") data : G.node =
    mk ctx ~ty:T.TBool Steer [ `Port p_port; data ] ~trigger:entry_pred ~label
  in
  let around = G.steer_select true and out = G.steer_select false in
  (* Token ring + done live-out. *)
  let st_tok = steer ~label:"steer.token" (`Port (mu_tok.nid, 0)) in
  st_tok.nty <- T.TBool;
  ignore
    (connect gt ~src:(st_tok.nid, around) ~dst:(mu_tok.nid, G.mu_back));
  let lo0 = add_node gt ~ty:T.TBool (LiveOut 0) ~nins:1 ~label:"done" in
  ignore (connect gt ~src:(st_tok.nid, out) ~dst:(lo0.nid, 0));
  (* Carried values: next-value steers feeding the μ back inputs. *)
  List.iter
    (fun (r, mu, back) ->
      let s =
        steer ~label:(Fmt.str "steer.next %%%d" r) (slot_of ctx back)
      in
      s.nty <- (G.node gt mu.G.nid).nty;
      ignore
        (connect gt ~src:(s.nid, around) ~dst:(mu.G.nid, G.mu_back)))
    mus;
  List.iter
    (fun (mu : G.node) ->
      let s = steer ~label:"steer.inv" (`Port (mu.nid, 0)) in
      s.nty <- mu.nty;
      ignore (connect gt ~src:(s.nid, around) ~dst:(mu.nid, G.mu_back)))
    inv_mus;
  (* Live-outs: current values of carried variables at loop exit. *)
  List.iteri
    (fun i r ->
      let _, mu, _ = List.find (fun (pr, _, _) -> pr = r) mus in
      let s =
        steer ~label:(Fmt.str "steer.out %%%d" r) (`Port (mu.G.nid, 0))
      in
      s.nty <- (G.node gt mu.G.nid).nty;
      let lo =
        add_node gt
          ~ty:(List.nth gt.res_tys (i + 1))
          (LiveOut (i + 1)) ~nins:1
          ~label:(Fmt.str "%%%d" r)
      in
      ignore (connect gt ~src:(s.nid, out) ~dst:(lo.nid, 0)))
    liveouts;
  (* Control ring: the loop predicate drives every μ's ctl port, primed
     with an initial false so the first selection takes the inits. *)
  let all_mus =
    mu_tok :: List.map (fun (_, mu, _) -> mu) mus @ inv_mus
  in
  List.iter
    (fun (mu : G.node) ->
      ignore
        (connect gt ~src:p_port ~dst:(mu.nid, G.mu_ctl) ~capacity:2
           ~initial:[ T.VBool false ]))
    all_mus

(* ------------------------------------------------------------------ *)
(* Dead-node pruning                                                    *)

let prune_task (t : G.task) =
  let changed = ref true in
  while !changed do
    changed := false;
    let has_out = Array.make t.next_nid false in
    List.iter (fun (e : G.edge) -> has_out.(fst e.src) <- true) t.edges;
    let dead = Array.make t.next_nid false in
    List.iter
      (fun (n : G.node) ->
        match n.kind with
        | (Compute _ | Fused _ | Merge _ | Tcompute _ | LiveIn _)
          when not has_out.(n.nid) ->
          dead.(n.nid) <- true;
          changed := true
        | _ -> ())
      t.nodes;
    if !changed then begin
      t.nodes <- List.filter (fun (n : G.node) -> not dead.(n.nid)) t.nodes;
      t.edges <- List.filter (fun (e : G.edge) -> not dead.(fst e.dst)) t.edges
    end
  done

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)

(** Default baseline memory system: a single shared 64 KB L1 cache in
    front of DRAM serving every address space (§6.4's baseline). *)
let default_memory (c : G.circuit) =
  let l1 =
    G.add_structure c ~sname:"l1"
      (Cache
         { banks = 1; line_words = 8; size_words = 8192; ways = 4;
           hit_latency = 2; miss_latency = 100 })
  in
  G.bind_space c 0 l1.sid;
  List.iter
    (fun (g : P.global) -> G.bind_space c g.gspace l1.sid)
    c.prog.globals

(** Build the baseline μIR circuit for [prog], rooted at [entry]. *)
let circuit ?(entry = "main") ?(name = "accelerator") (prog : P.t) :
    G.circuit =
  let st =
    { prog; tasks = []; next_tid = 0; func_task = Hashtbl.create 8;
      loop_task = Hashtbl.create 8; livein_regs = Hashtbl.create 8;
      liveout_regs = Hashtbl.create 8; mem = Access.of_program prog }
  in
  stage1 st;
  List.iter
    (fun (f : F.t) ->
      let ftid = Hashtbl.find st.func_task f.name in
      build_func_task st f (List.nth st.tasks ftid);
      List.iter
        (fun (lp : F.loop_info) ->
          let tid = Hashtbl.find st.loop_task (f.name, lp.header) in
          build_loop_task st f lp (List.nth st.tasks tid))
        f.loops)
    prog.funcs;
  List.iter
    (fun (t : G.task) ->
      t.nodes <- List.rev t.nodes;
      t.edges <- List.rev t.edges;
      prune_task t)
    st.tasks;
  let root = Hashtbl.find st.func_task entry in
  let c =
    { G.cname = name; tasks = st.tasks; root; structures = [];
      space_map = []; junction_width = []; prog }
  in
  default_memory c;
  c
