(** Circuit liveness: deadlock cycles, starvation and buffer sizing.

    μIR edges are latency-insensitive channels, so a task's dataflow
    can be analysed purely structurally:

    - A cycle of {e blocking} edges (edges carrying no initial tokens
      whose consumption is required before the consumer's first
      firing) can never receive its first token: every node in the
      cycle waits on its predecessor.  That is a guaranteed stall, no
      matter the schedule — reported as an error.

    - A node may also starve without sitting on a cycle: a steer whose
      predicate is a compile-time immediate routes every token to one
      output, so the other side of the diamond never fires.  We
      compute the least fixpoint of "can ever fire" and report the
      frontier of non-firable nodes.

    - Reconvergent fan-out with unbalanced registered depth does not
      deadlock (channels are elastic) but throttles throughput when
      the shorter path cannot buffer the longer path's in-flight
      tokens — the imbalance the μopt [balance] pass exists to fix,
      and the same criterion Dynamatic-style buffer sizers use.
      Reported as a warning.

    The analysis mirrors the simulator's firing rules: a [MergeLoop]
    consumes its control token first and selects init on the initial
    [false] ({!Muir_core.Graph.mu_select}), so its back input is not
    required for the first firing; every other kind requires all wired
    inputs.  An immediate steer predicate routes by the kernel's
    control-token rule, {!Muir_ir.Types.truthy}, onto the output
    {!Muir_core.Graph.steer_select} names. *)

module G = Muir_core.Graph
module T = Muir_ir.Types

(** Does the first firing of [n] consume input [port]?  Every input
    except a μ's back input, which the primed [false] control token
    leaves for the second iteration on. *)
let first_fire_reads (n : G.node) (port : int) : bool =
  match n.kind with G.MergeLoop -> port <> G.mu_back | _ -> true

(* ------------------------------------------------------------------ *)
(* Per-task analysis                                                   *)

(** A task and its index: each node, its in-edges and its out-edges
    (last edge first) by node id. *)
type ctx = { t : G.task; ix : G.index }

let make_ctx (t : G.task) : ctx = { t; ix = G.index t }
let node_of (c : ctx) (nid : int) : G.node = c.ix.ix_node.(nid)
let ins_of (c : ctx) (nid : int) : G.edge list = c.ix.ix_ins.(nid)
let outs_of (c : ctx) (nid : int) : G.edge list = c.ix.ix_outs.(nid)

(** A table over the task's node ids, every entry [v]. *)
let node_table (c : ctx) (v : 'a) : 'a array =
  Array.make (Array.length c.ix.ix_pos) v

(** The wired (non-immediate) input ports of [n], in order. *)
let wired_ports (n : G.node) : int list =
  List.filter
    (fun i -> match n.ins.(i) with G.Swire -> true | G.Simm _ -> false)
    (List.init (Array.length n.ins) Fun.id)

(** Does [e] carry initial tokens? *)
let primed (e : G.edge) : bool =
  match e.initial with [] -> false | _ :: _ -> true

(** [blocking] edges must receive a freshly produced token before
    their target's first firing: no initial tokens, and the target
    port is read by that firing. *)
let blocking_edge (c : ctx) (e : G.edge) : bool =
  (not (primed e)) && first_fire_reads (node_of c (fst e.dst)) (snd e.dst)

(** Strongly connected components of the blocking-edge subgraph
    (Tarjan).  Components with a cycle — more than one node, or a
    blocking self-loop — can never fire. *)
let deadlock_cycles (c : ctx) : int list list =
  let index = node_table c (-1) and low = node_table c 0 in
  let on_stack = node_table c false in
  let stack = ref [] and counter = ref 0 and sccs = ref [] in
  let succs nid =
    List.filter_map
      (fun (e : G.edge) ->
        if blocking_edge c e then Some (fst e.dst) else None)
      (outs_of c nid)
  in
  let rec strongconnect v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          if low.(w) < low.(v) then low.(v) <- low.(w)
        end
        else if on_stack.(w) && index.(w) < low.(v) then low.(v) <- index.(w))
      (succs v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter
    (fun (n : G.node) -> if index.(n.nid) < 0 then strongconnect n.nid)
    c.t.nodes;
  List.filter
    (function
      | [] -> false
      | [ v ] -> List.exists (fun w -> w = v) (succs v) (* self-loop *)
      | _ :: _ :: _ -> true)
    !sccs

(** Least fixpoint of "this node can fire at least once".  A wired
    input port is satisfiable when some in-edge either carries initial
    tokens or comes from a firable node on a live output port.  Steers
    with an immediate predicate only make the taken side live. *)
let can_fire_set (c : ctx) : bool array =
  let fire = node_table c false in
  let live_out (n : G.node) (port : int) : bool =
    match n.kind with
    | G.Steer | G.FusedSteer _ -> (
      match n.ins.(G.pred_port) with
      | G.Simm v -> port = G.steer_select (T.truthy v)
      | G.Swire -> true)
    | _ -> true
  in
  (* A wired port the first firing does not read needs no token. *)
  let port_ok (n : G.node) (p : int) : bool =
    (not (first_fire_reads n p))
    || List.exists
         (fun (e : G.edge) ->
           snd e.dst = p
           && (primed e
              || fire.(fst e.src)
                 && live_out (node_of c (fst e.src)) (snd e.src)))
         (ins_of c n.nid)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (n : G.node) ->
        if (not fire.(n.nid)) && List.for_all (port_ok n) (wired_ports n)
        then begin
          fire.(n.nid) <- true;
          changed := true
        end)
      c.t.nodes
  done;
  fire

(** Forward closure from nodes that emit without waiting on wired
    inputs (live-ins, immediate-only nodes) and from targets of primed
    edges — everything else can never see a token. *)
let reachable_set (c : ctx) : bool array =
  let seen = node_table c false in
  let rec visit nid =
    if not seen.(nid) then begin
      seen.(nid) <- true;
      List.iter (fun (e : G.edge) -> visit (fst e.dst)) (outs_of c nid)
    end
  in
  List.iter
    (fun (n : G.node) ->
      match wired_ports n with [] -> visit n.nid | _ :: _ -> ())
    c.t.nodes;
  List.iter
    (fun (e : G.edge) -> if primed e then visit (fst e.dst))
    c.t.edges;
  seen

(** Backward closure from live-out capture nodes: the nodes whose
    silence loses an observable result. *)
let feeds_liveout_set (c : ctx) : bool array =
  let seen = node_table c false in
  let rec visit nid =
    if not seen.(nid) then begin
      seen.(nid) <- true;
      List.iter (fun (e : G.edge) -> visit (fst e.src)) (ins_of c nid)
    end
  in
  List.iter
    (fun (n : G.node) ->
      match n.kind with G.LiveOut _ -> visit n.nid | _ -> ())
    c.t.nodes;
  seen

(* ------------------------------------------------------------------ *)
(* Buffer sizing                                                       *)

type path = {
  dmin : int;   (** registered depth of the shallowest path *)
  dmax : int;   (** registered depth of the deepest path *)
  slack : int;  (** token capacity along a shallowest path *)
}

let merge_path (a : path) (b : path) : path =
  let dmin, slack =
    if a.dmin < b.dmin then (a.dmin, a.slack)
    else if b.dmin < a.dmin then (b.dmin, b.slack)
    else (a.dmin, Int.max a.slack b.slack)
  in
  { dmin; dmax = Int.max a.dmax b.dmax; slack }

(** Fold into [m] the paths through edge [e] from its source's
    ancestor map [src]: one registered stage deeper, [e.capacity]
    slots roomier. *)
let add_paths (m : (int, path) Hashtbl.t) (e : G.edge)
    (src : (int, path) Hashtbl.t) : unit =
  Hashtbl.iter
    (fun a (p : path) ->
      let p' =
        { dmin = p.dmin + 1; dmax = p.dmax + 1; slack = p.slack + e.capacity }
      in
      match Hashtbl.find_opt m a with
      | None -> Hashtbl.replace m a p'
      | Some q -> Hashtbl.replace m a (merge_path q p'))
    src

(** Ancestor map of a node: for every transitive source reachable
    backwards over blocking edges, the registered-depth interval of
    the paths and the buffering available along a shallowest path.
    Primed and mu-back edges are skipped, which cuts every legal loop;
    residual zero-token cycles (already reported as deadlocks) are cut
    by the on-stack guard. *)
let ancestor_maps (c : ctx) : int -> (int, path) Hashtbl.t =
  let memo = node_table c None and on_stack = node_table c false in
  let rec anc nid : (int, path) Hashtbl.t =
    match memo.(nid) with
    | Some m -> m
    | None when on_stack.(nid) -> Hashtbl.create 1
    | None ->
      on_stack.(nid) <- true;
      let m = Hashtbl.create 8 in
      Hashtbl.replace m nid { dmin = 0; dmax = 0; slack = 0 };
      List.iter
        (fun (e : G.edge) ->
          if blocking_edge c e then add_paths m e (anc (fst e.src)))
        (ins_of c nid);
      on_stack.(nid) <- false;
      memo.(nid) <- Some m;
      m
  in
  anc

(** One warning (the worst imbalance) per reconvergence point. *)
let buffer_warnings (c : ctx) : Diag.t list =
  let anc = ancestor_maps c in
  let port_map (nid : int) (p : int) : (int, path) Hashtbl.t =
    let m = Hashtbl.create 8 in
    List.iter
      (fun (e : G.edge) ->
        if snd e.dst = p && blocking_edge c e then
          add_paths m e (anc (fst e.src)))
      (ins_of c nid);
    m
  in
  List.filter_map
    (fun (n : G.node) ->
      let wired = wired_ports n in
      let skip = match n.kind with G.MergeLoop -> true | _ -> false in
      if skip || List.length wired < 2 then None
      else begin
        let maps = List.map (fun p -> (p, port_map n.nid p)) wired in
        let worst = ref None in
        List.iter
          (fun (pi, mi) ->
            List.iter
              (fun (pj, mj) ->
                if pi <> pj then
                  Hashtbl.iter
                    (fun a (deep : path) ->
                      match Hashtbl.find_opt mj a with
                      | None -> ()
                      | Some shallow ->
                        let excess = deep.dmax - shallow.dmin in
                        if excess > shallow.slack then begin
                          match !worst with
                          | Some (e, _, _, _, _, _) when e >= excess -> ()
                          | _ ->
                            worst :=
                              Some (excess, a, pi, pj, deep, shallow)
                        end)
                    mi)
              maps)
          maps;
        match !worst with
        | None -> None
        | Some (excess, a, pi, pj, deep, shallow) ->
          Some
            (Diag.warning ~node:n.nid ~code:"buffer" ~where:c.t.tname
               "join n%d (%s): paths from n%d reconverge with depth %d on \
                port %d but only %d slot(s) of buffering on the depth-%d \
                path into port %d; the short path can stall %d token(s) \
                behind the long one"
               n.nid
               (G.kind_to_string n.kind)
               a deep.dmax pi shallow.slack shallow.dmin pj excess)
      end)
    c.t.nodes

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let check_task (t : G.task) : Diag.t list =
  let c = make_ctx t in
  let cycles = deadlock_cycles c in
  let in_cycle = node_table c false in
  List.iter (List.iter (fun v -> in_cycle.(v) <- true)) cycles;
  let cycle_diags =
    List.map
      (fun scc ->
        let scc = List.sort compare scc in
        Diag.error ?node:(List.nth_opt scc 0) ~code:"deadlock"
          ~where:t.tname
          "zero-token cycle through %s: every edge needs a token its \
           consumer can only produce after firing — the ring can never \
           start"
          (String.concat " -> "
             (List.map (fun v -> Fmt.str "n%d" v) scc)))
      cycles
  in
  let fire = can_fire_set c in
  let reach = reachable_set c in
  let to_liveout = feeds_liveout_set c in
  let unreachable_diags =
    List.filter_map
      (fun (n : G.node) ->
        if reach.(n.nid) || in_cycle.(n.nid) then None
        else
          Some
            (Diag.warning ~node:n.nid ~code:"unreachable" ~where:t.tname
               "n%d (%s) can never receive a token: no path from a \
                live-in, immediate or primed edge reaches it"
               n.nid
               (G.kind_to_string n.kind)))
      t.nodes
  in
  (* Starvation frontier: non-firable nodes all of whose blocking
     suppliers fire — the root causes, not the flood downstream. *)
  let starved_diags =
    List.filter_map
      (fun (n : G.node) ->
        let is_frontier =
          (not fire.(n.nid))
          && (not in_cycle.(n.nid))
          && reach.(n.nid)
          && List.for_all
               (fun (e : G.edge) ->
                 (not (blocking_edge c e)) || fire.(fst e.src))
               (ins_of c n.nid)
        in
        if not is_frontier then None
        else if to_liveout.(n.nid) then
          Some
            (Diag.error ~node:n.nid ~code:"starved" ~where:t.tname
               "n%d (%s) can never fire — an upstream steer's immediate \
                predicate routes every token away — and a live-out \
                depends on it"
               n.nid
               (G.kind_to_string n.kind))
        else
          Some
            (Diag.warning ~node:n.nid ~code:"starved" ~where:t.tname
               "n%d (%s) can never fire: every token is routed away \
                upstream" n.nid
               (G.kind_to_string n.kind)))
      t.nodes
  in
  cycle_diags @ starved_diags @ unreachable_diags @ buffer_warnings c

let check (c : G.circuit) : Diag.t list =
  Diag.dedup (List.concat_map check_task c.tasks)
