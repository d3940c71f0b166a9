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
    consumes its control token first and selects init (port 1) on the
    initial [false], so its back edge (port 2) is not required for the
    first firing; every other kind requires all wired inputs.  An
    immediate steer predicate routes by the kernel's control-token
    rule, {!Muir_ir.Types.truthy}. *)

module G = Muir_core.Graph
module T = Muir_ir.Types

(** [blocking] edges must receive a freshly produced token before
    their target's first firing: no initial tokens, and the target
    port is required for the first firing (everything except a
    mu/MergeLoop back edge, which is only consumed from the second
    iteration on). *)
let blocking_edge (node_of : int -> G.node) (e : G.edge) : bool =
  e.initial = []
  &&
  match (node_of (fst e.dst)).kind with
  | G.MergeLoop -> snd e.dst <> 2
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Per-task analysis                                                   *)

type ctx = {
  t : G.task;
  node_of : int -> G.node;
  ins_of : int -> G.edge list;  (** in-edges, by target node *)
  outs_of : int -> G.edge list; (** out-edges, by source node *)
}

let make_ctx (t : G.task) : ctx =
  let byid = Hashtbl.create 64 in
  List.iter (fun (n : G.node) -> Hashtbl.replace byid n.nid n) t.nodes;
  let ins = Hashtbl.create 64 and outs = Hashtbl.create 64 in
  List.iter
    (fun (e : G.edge) ->
      Hashtbl.replace ins (fst e.dst)
        (e :: (Option.value ~default:[] (Hashtbl.find_opt ins (fst e.dst))));
      Hashtbl.replace outs (fst e.src)
        (e :: (Option.value ~default:[] (Hashtbl.find_opt outs (fst e.src)))))
    t.edges;
  {
    t;
    node_of = Hashtbl.find byid;
    ins_of = (fun nid -> Option.value ~default:[] (Hashtbl.find_opt ins nid));
    outs_of = (fun nid -> Option.value ~default:[] (Hashtbl.find_opt outs nid));
  }

(** Strongly connected components of the blocking-edge subgraph
    (Tarjan).  Components with a cycle — more than one node, or a
    blocking self-loop — can never fire. *)
let deadlock_cycles (c : ctx) : int list list =
  let index = Hashtbl.create 64 and low = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] and counter = ref 0 and sccs = ref [] in
  let succs nid =
    List.filter_map
      (fun (e : G.edge) ->
        if blocking_edge c.node_of e then Some (fst e.dst) else None)
      (c.outs_of nid)
  in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter
    (fun (n : G.node) -> if not (Hashtbl.mem index n.nid) then
        strongconnect n.nid)
    c.t.nodes;
  List.filter
    (fun scc ->
      match scc with
      | [ v ] -> List.exists (fun w -> w = v) (succs v) (* self-loop *)
      | _ :: _ :: _ -> true
      | [] -> false)
    !sccs

(** Least fixpoint of "this node can fire at least once".  A wired
    input port is satisfiable when some in-edge either carries initial
    tokens or comes from a firable node on a live output port.  Steers
    with an immediate predicate only make the taken side live. *)
let can_fire_set (c : ctx) : (int, unit) Hashtbl.t =
  let fire = Hashtbl.create 64 in
  let live_out (n : G.node) (port : int) : bool =
    match n.kind with
    | G.Steer | G.FusedSteer _ -> (
      match n.ins.(0) with
      | G.Simm v -> port = if T.truthy v then 0 else 1
      | G.Swire -> true)
    | _ -> true
  in
  let required_ports (n : G.node) : int list =
    let skip_back = match n.kind with G.MergeLoop -> 2 | _ -> -1 in
    Array.to_list n.ins
    |> List.mapi (fun i s -> (i, s))
    |> List.filter_map (fun (i, s) ->
           match s with
           | G.Simm _ -> None
           | G.Swire -> if i = skip_back then None else Some i)
  in
  let port_ok (n : G.node) (p : int) : bool =
    List.exists
      (fun (e : G.edge) ->
        snd e.dst = p
        && (e.initial <> []
           ||
           (Hashtbl.mem fire (fst e.src)
           && live_out (c.node_of (fst e.src)) (snd e.src))))
      (c.ins_of n.nid)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (n : G.node) ->
        if not (Hashtbl.mem fire n.nid)
           && List.for_all (port_ok n) (required_ports n)
        then begin
          Hashtbl.replace fire n.nid ();
          changed := true
        end)
      c.t.nodes
  done;
  fire

(** Forward closure from nodes that emit without waiting on wired
    inputs (live-ins, immediate-only nodes) and from targets of primed
    edges — everything else can never see a token. *)
let reachable_set (c : ctx) : (int, unit) Hashtbl.t =
  let seen = Hashtbl.create 64 in
  let rec visit nid =
    if not (Hashtbl.mem seen nid) then begin
      Hashtbl.replace seen nid ();
      List.iter (fun (e : G.edge) -> visit (fst e.dst)) (c.outs_of nid)
    end
  in
  List.iter
    (fun (n : G.node) ->
      let has_wired = Array.exists (fun s -> s = G.Swire) n.ins in
      if not has_wired then visit n.nid)
    c.t.nodes;
  List.iter
    (fun (e : G.edge) -> if e.initial <> [] then visit (fst e.dst))
    c.t.edges;
  seen

(** Backward closure from live-out capture nodes: the nodes whose
    silence loses an observable result. *)
let feeds_liveout_set (c : ctx) : (int, unit) Hashtbl.t =
  let seen = Hashtbl.create 64 in
  let rec visit nid =
    if not (Hashtbl.mem seen nid) then begin
      Hashtbl.replace seen nid ();
      List.iter (fun (e : G.edge) -> visit (fst e.src)) (c.ins_of nid)
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
    else (a.dmin, max a.slack b.slack)
  in
  { dmin; dmax = max a.dmax b.dmax; slack }

(** Ancestor map of a node: for every transitive source reachable
    backwards over blocking edges, the registered-depth interval of
    the paths and the buffering available along a shallowest path.
    Primed and mu-back edges are skipped, which cuts every legal loop;
    residual zero-token cycles (already reported as deadlocks) are cut
    by the on-stack guard. *)
let ancestor_maps (c : ctx) : int -> (int, path) Hashtbl.t =
  let memo : (int, (int, path) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 16 in
  let rec anc nid : (int, path) Hashtbl.t =
    match Hashtbl.find_opt memo nid with
    | Some m -> m
    | None ->
      if Hashtbl.mem on_stack nid then Hashtbl.create 1
      else begin
        Hashtbl.replace on_stack nid ();
        let m = Hashtbl.create 8 in
        Hashtbl.replace m nid { dmin = 0; dmax = 0; slack = 0 };
        List.iter
          (fun (e : G.edge) ->
            if blocking_edge c.node_of e then begin
              let w = match e.ekind with G.Registered -> 1 | G.Comb -> 0 in
              Hashtbl.iter
                (fun a (p : path) ->
                  let p' =
                    { dmin = p.dmin + w; dmax = p.dmax + w;
                      slack = p.slack + e.capacity }
                  in
                  match Hashtbl.find_opt m a with
                  | None -> Hashtbl.replace m a p'
                  | Some q -> Hashtbl.replace m a (merge_path q p'))
                (anc (fst e.src))
            end)
          (c.ins_of nid);
        Hashtbl.remove on_stack nid;
        Hashtbl.replace memo nid m;
        m
      end
  in
  anc

(** One warning (the worst imbalance) per reconvergence point. *)
let buffer_warnings (c : ctx) : Diag.t list =
  let anc = ancestor_maps c in
  let port_map (nid : int) (p : int) : (int, path) Hashtbl.t =
    let m = Hashtbl.create 8 in
    List.iter
      (fun (e : G.edge) ->
        if snd e.dst = p && blocking_edge c.node_of e then begin
          let w = match e.ekind with G.Registered -> 1 | G.Comb -> 0 in
          Hashtbl.iter
            (fun a (q : path) ->
              let q' =
                { dmin = q.dmin + w; dmax = q.dmax + w;
                  slack = q.slack + e.capacity }
              in
              match Hashtbl.find_opt m a with
              | None -> Hashtbl.replace m a q'
              | Some r -> Hashtbl.replace m a (merge_path r q'))
            (anc (fst e.src))
        end)
      (c.ins_of nid);
    m
  in
  List.filter_map
    (fun (n : G.node) ->
      let wired =
        Array.to_list n.ins
        |> List.mapi (fun i s -> (i, s))
        |> List.filter_map (fun (i, s) ->
               if s = G.Swire then Some i else None)
      in
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
  let in_cycle = Hashtbl.create 16 in
  List.iter
    (fun scc -> List.iter (fun v -> Hashtbl.replace in_cycle v ()) scc)
    cycles;
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
        if Hashtbl.mem reach n.nid || Hashtbl.mem in_cycle n.nid then None
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
          (not (Hashtbl.mem fire n.nid))
          && (not (Hashtbl.mem in_cycle n.nid))
          && Hashtbl.mem reach n.nid
          && List.for_all
               (fun (e : G.edge) ->
                 (not (blocking_edge c.node_of e))
                 || Hashtbl.mem fire (fst e.src))
               (c.ins_of n.nid)
        in
        if not is_frontier then None
        else if Hashtbl.mem to_liveout n.nid then
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
