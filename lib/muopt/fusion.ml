(** Auto-pipelining and op fusion (§6.1, Fig. 10).

    The baseline graph makes no scheduling decisions: every connection
    is a registered ready/valid handshake, so a chain of k cheap
    operations costs k stages.  This pass walks each task's dataflow
    depth-first and greedily fuses chains of inexpensive single-cycle
    operations into one stage group, eliminating the intermediate
    handshakes and pipeline registers.  A chain that ends in a [Steer]
    absorbs it ([FusedSteer]), which is what re-times the serial loop
    ring (the paper's Buffer→φ→i++→i==0→branch, five stages → two).

    Fusion is bounded ([max_chain] operations, [budget] of delay) so
    the resulting stage does not rob frequency — the synthesis model
    charges the fused group's {!Muir_core.Cost.chain_delay}, the same
    sum this pass budgets. *)

module G = Muir_core.Graph
module I = Muir_ir.Instr

(** Cheap ops eligible for fusion: sub-nanosecond ALU primitives. *)
let fusable (op : G.fu_op) : bool =
  match op with
  | Fibin (Add | Sub | And | Or | Xor | Shl | Lshr | Ashr) -> true
  | Ficmp _ | Fselect | Fgep _ | Fident -> true
  | Fibin (Mul | Sdiv | Srem) | Ffbin _ | Ffcmp _ | Ffunary _ | Fcast _ ->
    false

(** Can the running value enter this op at input [port]?  Position 0
    always works; position 1 works for commutative ops (the pass swaps
    the operands when building the fused chain). *)
let commutative (op : G.fu_op) : bool =
  match op with
  | Fibin (Add | And | Or | Xor) -> true
  | Ficmp (Eq | Ne) -> true
  | Fgep 1 -> true (* base + index*1 is symmetric *)
  | _ -> false

let op_of (n : G.node) : G.fu_op option =
  match n.kind with G.Compute op -> Some op | _ -> None

(** A node participates only if its inputs are exactly the opcode's
    operands (no trailing trigger/order tokens). *)
let plain_arity (n : G.node) : bool =
  match op_of n with
  | Some op -> Array.length n.ins = Muir_core.Graph.in_arity n.kind ~call_args:0
             && fusable op
  | None -> false

type chain_elt = {
  ce_node : G.node;
  ce_entry_port : int;  (** where the running value enters (chain tail) *)
}

(** Delay budget for one fused stage (≈ two chained adders): fusing
    beyond this would rob frequency, which the paper's pass explicitly
    avoids. *)
let budget = 2.1

(** Longest chain of operations fused into one stage. *)
let max_chain = 4

(** Fuse chains in one task; returns (nodes removed, edges removed).
    Lookups read the task's {!Muir_core.Graph.index}, rebuilt after
    each fusion rewrites the task. *)
let fuse_task (t : G.task) : int * int =
  let removed_nodes = ref 0 and removed_edges = ref 0 in
  let ix = ref (G.index t) in
  (* By node id: a member of a chain fused so far.  Fused nodes take
     ids past the table and are never members. *)
  let consumed = Array.make (Array.length !ix.ix_pos) false in
  let is_consumed nid =
    nid >= 0 && nid < Array.length consumed && consumed.(nid)
  in
  (* Grow a chain starting at [head_node] (which must be plain &
     fusable); [n] is the current tail. *)
  let rec grow ~(head_node : G.node) (chain : chain_elt list) (n : G.node) :
      chain_elt list =
    if List.length chain >= max_chain then chain
    else
      match !ix.ix_outs.(n.nid) with
      | [ e ] when snd e.src = 0 -> (
        let succ = !ix.ix_node.(fst e.dst) in
        if is_consumed succ.nid then chain
        else
          match succ.kind with
          | G.Compute op when plain_arity succ -> (
            let port = snd e.dst in
            let cur_ops =
              List.filter_map (fun c -> op_of c.ce_node)
                ({ ce_node = head_node; ce_entry_port = 0 } :: chain)
            in
            if
              (port = 0 || (port = 1 && commutative op))
              && Muir_core.Cost.chain_delay (op :: cur_ops) <= budget
            then
              grow ~head_node
                (chain @ [ { ce_node = succ; ce_entry_port = port } ])
                succ
            else chain)
          | G.Steer when snd e.dst = G.steer_data ->
            (* absorb the steer as the chain terminator *)
            chain @ [ { ce_node = succ; ce_entry_port = G.steer_data } ]
          | _ -> chain)
      | _ -> chain
  in
  (* The edge driving input [port] of [n]: validation admits one. *)
  let input_src (n : G.node) (port : int) =
    List.find (fun (e : G.edge) -> snd e.dst = port) !ix.ix_ins.(n.nid)
  in
  let try_fuse (head : G.node) : unit =
    if (not (is_consumed head.nid)) && plain_arity head then begin
      let chain = grow ~head_node:head [] head in
      (* If an absorbed steer's predicate is produced inside the chain
         itself, leave the steer out (its pred must stay external). *)
      let chain =
        match List.rev chain with
        | ({ ce_node = { kind = G.Steer; _ } as s; _ } as last) :: rest_rev ->
          let member nid =
            nid = head.nid || List.exists (fun c -> c.ce_node.G.nid = nid) chain
          in
          let pred_internal =
            List.exists
              (fun (e : G.edge) ->
                snd e.dst = G.pred_port && member (fst e.src))
              !ix.ix_ins.(s.nid)
          in
          if pred_internal then List.rev rest_rev
          else List.rev (last :: rest_rev)
        | _ -> chain
      in
      (* Need at least one successor to be worth fusing. *)
      if chain <> [] then begin
        let members = head :: List.map (fun c -> c.ce_node) chain in
        List.iter (fun (n : G.node) -> consumed.(n.nid) <- true) members;
        (* Only the last member can be a steer; [op_of] skips it. *)
        let last = List.nth members (List.length members - 1) in
        let steer_node =
          match last.kind with G.Steer -> Some last | _ -> None
        in
        let ops = List.filter_map op_of members in
        (* Gather external inputs in Exec.fused_sc order: head's operands,
           then each later member's non-chained operands. *)
        let ext_inputs : (G.slot * (G.node_id * int) option) list ref =
          ref []
        in
        let add_port (n : G.node) (port : int) =
          match n.ins.(port) with
          | G.Simm v -> ext_inputs := !ext_inputs @ [ (G.Simm v, None) ]
          | G.Swire ->
            let e = input_src n port in
            ext_inputs := !ext_inputs @ [ (G.Swire, Some e.src) ]
        in
        (* Steer's predicate goes first if present. *)
        (match steer_node with
        | Some s -> add_port s G.pred_port
        | None -> ());
        Array.iteri (fun i _ -> add_port head i) head.ins;
        List.iter
          (fun ce ->
            match ce.ce_node.kind with
            | G.Steer -> () (* data port is the chain; pred added above *)
            | _ ->
              Array.iteri
                (fun i _ -> if i <> ce.ce_entry_port then add_port ce.ce_node i)
                ce.ce_node.ins)
          chain;
        (* Create the fused node. *)
        let kind =
          match steer_node with
          | Some _ -> G.FusedSteer ops
          | None -> G.Fused ops
        in
        let fused =
          G.add_node t ~ty:last.nty kind ~nins:(List.length !ext_inputs)
            ~label:
              (Fmt.str "fused(%s)"
                 (String.concat "+"
                    (List.filter_map
                       (fun (n : G.node) ->
                         if n.label = "" then None else Some n.label)
                       members)))
        in
        List.iteri
          (fun i (slot, src) ->
            match slot, src with
            | G.Simm v, _ -> G.set_imm fused i v
            | G.Swire, Some (sn, sp) ->
              (* Retarget the first feeding edge, in [t.edges] order,
                 that still enters a member from outside the chain. *)
              let e =
                List.find
                  (fun (e : G.edge) ->
                    snd e.src = sp && is_consumed (fst e.dst)
                    && not (is_consumed sn))
                  (List.rev !ix.ix_outs.(sn))
              in
              e.dst <- (fused.nid, i)
            | G.Swire, None -> assert false)
          !ext_inputs;
        (* Outputs: re-source the last member's out edges. *)
        List.iter
          (fun (e : G.edge) -> e.src <- (fused.nid, snd e.src))
          !ix.ix_outs.(last.nid);
        (* Drop internal edges and the old nodes. *)
        let is_dead (e : G.edge) =
          is_consumed (fst e.src) || is_consumed (fst e.dst)
        in
        removed_edges :=
          !removed_edges + List.length (List.filter is_dead t.edges);
        t.edges <- List.filter (fun e -> not (is_dead e)) t.edges;
        t.nodes <-
          List.filter (fun (n : G.node) -> not (is_consumed n.nid)) t.nodes;
        removed_nodes := !removed_nodes + List.length members - 1;
        ix := G.index t
      end
    end
  in
  (* Depth-first over a snapshot of the node list. *)
  List.iter try_fuse t.nodes;
  (!removed_nodes, !removed_edges)

(* ------------------------------------------------------------------ *)
(* Pipeline balancing                                                   *)

(** Slots a balanced channel may grow to. *)
let max_slots = 16

(** Auto-balance a task's dataflow: size each channel so reconvergent
    paths of different depths do not throttle the producer (§6.1:
    "We auto balance the dataflow pipeline ...").  The slack of an
    edge is the difference between its consumer's longest-path arrival
    time and the producer's; a channel needs roughly [slack] extra
    token slots to decouple.  Back edges (the loop ring and ordering
    chains) are left alone — their depth is the loop's II, which
    buffering cannot and must not change.  No channel grows past
    [max_slots]. *)
let balance_task (t : G.task) : int =
  let lat (n : G.node) = (Muir_core.Cost.node_cost n.kind).latency in
  let ix = G.index t in
  (* Forward edges only: drop edges carrying initial tokens (primed
     back edges) and MergeLoop data-back/ctl inputs. *)
  let forward (e : G.edge) =
    match e.initial, ix.ix_node.(fst e.dst).kind with
    | _ :: _, _ -> false
    | [], G.MergeLoop -> snd e.dst = G.mu_init (* init input is forward *)
    | [], _ -> true
  in
  (* By node id: -2 unvisited, -1 on the current path, else the depth. *)
  let depth = Array.make (Array.length ix.ix_pos) (-2) in
  let rec node_depth nid =
    if depth.(nid) = -1 then 0 (* cycle guard *)
    else if depth.(nid) >= 0 then depth.(nid)
    else begin
      depth.(nid) <- -1;
      (* in-edges in [t.edges] order *)
      let ins = List.filter forward (List.rev ix.ix_ins.(nid)) in
      let d =
        List.fold_left
          (fun acc (e : G.edge) ->
            let src = ix.ix_node.(fst e.src) in
            Int.max acc (node_depth src.nid + lat src))
          0 ins
      in
      depth.(nid) <- d;
      d
    end
  in
  let touched = ref 0 in
  List.iter
    (fun (e : G.edge) ->
      if forward e then begin
        let src = ix.ix_node.(fst e.src) in
        let slack = node_depth (fst e.dst) - (node_depth src.nid + lat src) in
        let want = Int.min max_slots (Int.max e.capacity (1 + slack)) in
        if want > e.capacity then begin
          e.capacity <- want;
          incr touched
        end
      end)
    t.edges;
  !touched

(** Run auto-pipelining (balancing) and op fusion over the circuit. *)
let run (c : G.circuit) : Pass.report =
  let nodes = ref 0 and edges = ref 0 in
  G.iter_tasks
    (fun t ->
      let n, e = fuse_task t in
      let buffered = balance_task t in
      nodes := !nodes + n;
      edges := !edges + e + buffered)
    c;
  Pass.report "op-fusion" ~nodes:!nodes ~edges:!edges
    ~detail:(Fmt.str "fused %d nodes away" !nodes)

let pass : Pass.t = { pname = "op-fusion"; prun = (fun c -> run c) }
