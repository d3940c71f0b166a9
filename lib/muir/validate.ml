(** Structural validation of μIR circuits.  μopt passes are expected
    to leave circuits valid: the pass manager checks after every pass
    and the simulator before it builds its instances.  Each check is
    one pass over the task's nodes or edges, so validation is linear
    in the circuit's size. *)

module G = Graph

type error = { vwhere : string; vwhat : string }

let pp_error ppf e = Fmt.pf ppf "%s: %s" e.vwhere e.vwhat

let validate_task (c : G.circuit) (t : G.task) : error list =
  let errs = ref [] in
  let err fmt =
    Fmt.kstr (fun m -> errs := { vwhere = t.tname; vwhat = m } :: !errs) fmt
  in
  (* Unique, non-negative node ids: the index holds the first node of
     each id, so a node found elsewhere is a later duplicate. *)
  let ix = G.index t in
  List.iteri
    (fun i (n : G.node) ->
      if n.nid < 0 then err "negative node id n%d" n.nid
      else if ix.ix_pos.(n.nid) <> i then err "duplicate node id n%d" n.nid)
    t.nodes;
  (* Unique edge ids. *)
  let eids = Hashtbl.create (List.length t.edges) in
  List.iter
    (fun (e : G.edge) ->
      if Hashtbl.mem eids e.eid then err "duplicate edge id e%d" e.eid
      else Hashtbl.replace eids e.eid ())
    t.edges;
  let find nid = if G.ix_mem ix nid then Some ix.ix_node.(nid) else None in
  (* Edges reference live endpoints and in-range wired ports; each
     node's driver row holds its input ports' (first) driving edges. *)
  let drv =
    Array.map (fun (n : G.node) -> Array.make (Array.length n.ins) None)
      ix.ix_node
  in
  let driver nid port =
    if G.ix_mem ix nid && port < Array.length drv.(nid) then drv.(nid).(port)
    else None
  in
  List.iter
    (fun (e : G.edge) ->
      (match find (fst e.src) with
      | None -> err "edge e%d: source n%d missing" e.eid (fst e.src)
      | Some n ->
        let out = G.out_arity n.kind ~call_res:max_int in
        if snd e.src < 0 || snd e.src >= out then
          err "edge e%d: source port %d out of range for %s" e.eid
            (snd e.src) (G.kind_to_string n.kind));
      (match find (fst e.dst) with
      | None -> err "edge e%d: target n%d missing" e.eid (fst e.dst)
      | Some n ->
        if snd e.dst < 0 || snd e.dst >= Array.length n.ins then
          err "edge e%d: target port %d out of range (arity %d)" e.eid
            (snd e.dst) (Array.length n.ins)
        else begin
          (match n.ins.(snd e.dst) with
          | G.Swire -> ()
          | G.Simm _ ->
            err "edge e%d: target port n%d.%d is an immediate" e.eid
              (fst e.dst) (snd e.dst));
          match driver (fst e.dst) (snd e.dst) with
          | Some _ ->
            err "input port n%d.%d driven twice" (fst e.dst) (snd e.dst)
          | None -> drv.(fst e.dst).(snd e.dst) <- Some e
        end);
      if e.capacity < 1 then err "edge e%d: capacity < 1" e.eid;
      if List.length e.initial > e.capacity then
        err "edge e%d: more initial tokens than capacity" e.eid)
    t.edges;
  (* Every wired (non-immediate) input port is driven. *)
  List.iter
    (fun (n : G.node) ->
      Array.iteri
        (fun i slot ->
          match (slot, driver n.nid i) with
          | G.Simm _, _ | G.Swire, Some _ -> ()
          | G.Swire, None ->
            err "input port n%d.%d (%s) is undriven" n.nid i
              (G.kind_to_string n.kind))
        n.ins)
    t.nodes;
  (* Node-kind specific rules; live-outs are counted per index. *)
  let produced = Array.make (List.length t.res_tys) 0 in
  List.iter
    (fun (n : G.node) ->
      match n.kind with
      | G.MergeLoop -> (
        match driver n.nid G.mu_ctl with
        | Some e ->
          if e.initial <> [ Muir_ir.Types.VBool false ] then
            err "mu n%d: ctl edge must carry one initial false token" n.nid
        | None -> err "mu n%d: ctl port undriven" n.nid)
      | G.LiveIn i ->
        if i < 0 || i >= List.length t.arg_tys then
          err "livein index %d out of range" i
      | G.LiveOut i ->
        if i < 0 || i >= Array.length produced then
          err "liveout index %d out of range" i
        else produced.(i) <- produced.(i) + 1
      | G.CallChild tid | G.SpawnChild tid -> (
        match List.find_opt (fun (x : G.task) -> x.tid = tid) c.tasks with
        | None -> err "call/spawn n%d: no task %d" n.nid tid
        | Some child ->
          let expected = List.length child.arg_tys in
          (* inputs: pred + args (+ trailing order tokens) *)
          if Array.length n.ins < expected then
            err "call/spawn n%d: %d inputs < child arity %d" n.nid
              (Array.length n.ins) expected;
          if not (List.mem tid t.children) then
            err "call/spawn n%d: %d not in children list" n.nid tid)
      | G.Merge k ->
        if Array.length n.ins <> 2 * k then
          err "merge n%d: arity %d, expected %d" n.nid (Array.length n.ins)
            (2 * k)
      | _ -> ())
    t.nodes;
  (* Every live-out index is produced exactly once. *)
  Array.iteri
    (fun i count ->
      if count <> 1 then err "liveout %d produced %d times" i count)
    produced;
  if t.tiles < 1 then err "tiles < 1";
  if t.queue_depth < 1 then err "queue depth < 1";
  List.rev !errs

let validate (c : G.circuit) : error list =
  let errs = ref [] in
  let err fmt =
    Fmt.kstr (fun m -> errs := { vwhere = c.cname; vwhat = m } :: !errs) fmt
  in
  (* Root exists. *)
  if not (List.exists (fun (t : G.task) -> t.tid = c.root) c.tasks) then
    err "root task %d missing" c.root;
  (* Space map targets exist, and every space used by a memory node is
     bound (or defaults to space 0's structure). *)
  List.iter
    (fun (sp, sid) ->
      if not (List.exists (fun (s : G.struct_inst) -> s.sid = sid) c.structures)
      then err "space %d bound to missing structure %d" sp sid)
    c.space_map;
  if not (List.mem_assoc 0 c.space_map) then
    err "space 0 (global) must be bound to a structure";
  List.iter
    (fun t -> errs := validate_task c t @ !errs)
    c.tasks;
  List.rev !errs

let check_exn (c : G.circuit) : unit =
  match validate c with
  | [] -> ()
  | errs ->
    invalid_arg
      (Fmt.str "μIR validation failed:@,%a"
         Fmt.(list ~sep:cut pp_error)
         errs)
