(** The bottleneck profiler: turns the always-on {!Counters} bank —
    plus, optionally, a {!Trace.t} event ring — into per-node stall
    attribution, per-structure rollups, a critical path over the
    fire-event DAG, and a human-readable report — the instrument the
    paper's §7 loop uses to decide {e which} μopt pass to apply next.

    Attribution is exact (it comes from the whole-run counter bank,
    not the ring), so a profile needs no tracer at all; the critical
    path and occupancy histograms come from the ring's retained
    window when one is supplied, so on very long runs they describe
    the tail of the run. *)

module G = Muir_core.Graph
module Dot = Muir_core.Dot
module Tr = Trace

(** One static (task, node) pair, aggregated over every instance. *)
type row = {
  r_task : G.task_id;
  r_tname : string;
  r_node : G.node_id;
  r_kind : string;
  r_fires : int;
  r_span : int;        (** Σ instance lifetimes (cycles) *)
  r_acc : int array;   (** per-cause cycles; Σ = [r_span] *)
  r_sref : G.struct_ref option;
}

(** Stall cycles charged to one hardware structure. *)
type struct_row = {
  s_ref : G.struct_ref;
  s_name : string;
  s_stalls : int;   (** cycles of Memory (structures) / Structural (queues) *)
  s_nodes : int;    (** distinct nodes charging it *)
  s_suggest : string;  (** the μopt pass family that widens it *)
}

(** Per-node totals along the critical path. *)
type crit_step = {
  cs_tname : string;
  cs_node : G.node_id;
  cs_kind : string;
  cs_count : int;   (** fire events of this node on the path *)
  cs_lat : int;     (** Σ service latency on the path *)
  cs_wait : int;    (** Σ cycles the consumer sat waiting for it *)
}

type crit = {
  c_len : int;      (** elapsed cycles covered by the path *)
  c_events : int;   (** fire events on the path *)
  c_steps : crit_step list;  (** sorted by lat+wait, descending *)
}

type t = {
  p_name : string;
  p_cycles : int;
  p_fires : int;
  p_rows : row list;   (** sorted by stall cycles, descending *)
  p_structs : struct_row list;  (** sorted by attributed stalls *)
  p_crit : crit option;
  p_occ : (string * (int * int) list) list;
      (** occupancy histograms: name -> (depth, samples) *)
  p_events_total : int;
  p_events_kept : int;
}

let busy_i = Counters.cause_index Counters.Busy
let idle_i = Counters.cause_index Counters.Idle

(** Stall cycles of a row: everything that is neither busy nor idle. *)
let row_stalls (r : row) : int =
  let s = ref 0 in
  Array.iteri
    (fun i v -> if i <> busy_i && i <> idle_i then s := !s + v)
    r.r_acc;
  !s

let operand_i = Counters.cause_index Counters.Operand

(** Resource stalls: hazards other than waiting for a producer.  Every
    node downstream of a bottleneck shows operand-wait, so ranking by
    resource stalls first pinpoints the node {e causing} the backup. *)
let row_resource_stalls (r : row) : int = row_stalls r - r.r_acc.(operand_i)

(** The dominant stall cause (idle excluded); [None] if never stalled. *)
let dominant (r : row) : Counters.cause option =
  let best = ref (-1) and bestv = ref 0 in
  Array.iteri
    (fun i v ->
      if i <> busy_i && i <> idle_i && v > !bestv then begin
        best := i;
        bestv := v
      end)
    r.r_acc;
  if !best < 0 then None else Some Counters.cause_of_index.(!best)

(** The conservation invariant every row must satisfy. *)
let conserved (r : row) : bool =
  Array.fold_left ( + ) 0 r.r_acc = r.r_span

(* ------------------------------------------------------------------ *)
(* Structure rollup                                                     *)

let suggest (c : G.circuit) : G.struct_ref -> string = function
  | G.Rstruct sid -> (
    match (G.structure c sid).shape with
    | G.Cache _ -> "-O cache-bank=N or -O localize"
    | G.Scratchpad _ -> "-O spad-bank=N (or a write-back buffer)")
  | G.Rqueue tid ->
    Fmt.str "-O queuing / -O tiling=N on task %s" (G.task c tid).tname

let structs_of_rows (c : G.circuit) (rows : row list) : struct_row list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r.r_sref with
      | None -> ()
      | Some sref ->
        let charged =
          match sref with
          | G.Rstruct _ -> r.r_acc.(Counters.cause_index Counters.Memory)
          | G.Rqueue _ -> r.r_acc.(Counters.cause_index Counters.Structural)
        in
        let stalls, nodes =
          Option.value ~default:(0, 0) (Hashtbl.find_opt tbl sref)
        in
        Hashtbl.replace tbl sref (stalls + charged, nodes + 1))
    rows;
  Hashtbl.fold
    (fun sref (s_stalls, s_nodes) acc ->
      { s_ref = sref; s_name = G.struct_ref_name c sref; s_stalls; s_nodes;
        s_suggest = suggest c sref }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.s_stalls a.s_stalls)

(** The structure the run blames most: the first row with any
    attributed stalls (rows are sorted by stalls, descending).  [None]
    when nothing stalled — the design is dependence-bound.  This is
    the measured counterpart of the static timing analysis's binding
    resource; drivers rank the static suggestion against it. *)
let dominant_struct (p : t) : struct_row option =
  List.find_opt (fun s -> s.s_stalls > 0) p.p_structs

(** Fraction of all node-lifetime cycles stalled on structure [name];
    0 if the structure is unknown or never charged. *)
let struct_share (p : t) (name : string) : float =
  let span = List.fold_left (fun a r -> a + r.r_span) 0 p.p_rows in
  if span = 0 then 0.0
  else
    match List.find_opt (fun s -> s.s_name = name) p.p_structs with
    | Some s -> float_of_int s.s_stalls /. float_of_int span
    | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Critical path over the fire-event DAG                                *)

(* Each fire event's critical parent is the producer whose token
   arrived last: over the wired inputs of the firing node, the latest
   prior fire of each input's source, maximizing (fire cycle +
   latency).  Walking the backlinks from the last event of the run
   yields the chain of firings that determined the finish time; the
   cycles between consecutive links split into service (the producer's
   latency) and wait (queueing/arbitration the consumer sat through). *)

type fev = { f_c : int; f_task : int; f_inst : int; f_node : int; f_lat : int }

let critical (c : G.circuit) (evs : Tr.ev list) : crit option =
  let fires =
    List.filter_map
      (function
        | Tr.Efire { c; task; inst; node; lat } ->
          Some { f_c = c; f_task = task; f_inst = inst; f_node = node;
                 f_lat = lat }
        | _ -> None)
      evs
    |> Array.of_list
  in
  let n = Array.length fires in
  if n = 0 then None
  else begin
    (* Wired-input sources per (task, node). *)
    let srcs = Hashtbl.create 64 in
    List.iter
      (fun (t : G.task) ->
        List.iter
          (fun (e : G.edge) ->
            let k = (t.tid, fst e.dst) in
            Hashtbl.replace srcs k
              (fst e.src
              :: (try Hashtbl.find srcs k with Not_found -> [])))
          t.edges)
      c.tasks;
    (* Producers that cross the task boundary: a token arriving from a
       call/spawn node was really produced by the child task, so its
       LiveOut firings (any instance) are candidate parents too —
       without this the path would dead-end at the caller. *)
    let child_outs = Hashtbl.create 16 in
    List.iter
      (fun (t : G.task) ->
        List.iter
          (fun (n : G.node) ->
            match n.kind with
            | G.CallChild tid | G.SpawnChild tid ->
              let outs =
                List.filter_map
                  (fun (m : G.node) ->
                    match m.kind with
                    | G.LiveOut _ -> Some m.nid
                    | _ -> None)
                  (G.task c tid).nodes
              in
              Hashtbl.replace child_outs (t.tid, n.nid)
                (List.map (fun nid -> (tid, nid)) outs)
            | _ -> ())
          t.nodes)
      c.tasks;
    (* Last two fires per (inst, node) — and per (task, node) across
       instances, for the cross-task links.  Events arrive in cycle
       order, so the latest prior fire of a producer is its last
       record with a strictly smaller cycle — or the one before, when
       producer and consumer fired in the same cycle. *)
    let last = Hashtbl.create 256 in
    let lastg = Hashtbl.create 256 in
    let parent = Array.make n (-1) in
    Array.iteri
      (fun i f ->
        (match Hashtbl.find_opt srcs (f.f_task, f.f_node) with
        | None -> ()
        | Some ss ->
          let best = ref (-1) and best_arr = ref min_int in
          let consider tbl k =
            match Hashtbl.find_opt tbl k with
            | None -> ()
            | Some (j1, j2) ->
              let pick j =
                if j >= 0 && fires.(j).f_c < f.f_c then begin
                  let arr = fires.(j).f_c + fires.(j).f_lat in
                  if arr > !best_arr then begin
                    best := j;
                    best_arr := arr
                  end
                end
              in
              pick j1;
              pick j2
          in
          List.iter
            (fun s ->
              consider last (f.f_inst, s);
              match Hashtbl.find_opt child_outs (f.f_task, s) with
              | Some outs -> List.iter (consider lastg) outs
              | None -> ())
            ss;
          parent.(i) <- !best);
        let push tbl k =
          match Hashtbl.find_opt tbl k with
          | Some (j1, _) -> Hashtbl.replace tbl k (i, j1)
          | None -> Hashtbl.replace tbl k (i, -1)
        in
        push last (f.f_inst, f.f_node);
        push lastg (f.f_task, f.f_node))
      fires;
    (* End of the path: the event with the latest finish time. *)
    let final = ref 0 in
    Array.iteri
      (fun i f ->
        let fin = fires.(!final) in
        if f.f_c + f.f_lat > fin.f_c + fin.f_lat then final := i)
      fires;
    let steps = Hashtbl.create 32 in
    let count = ref 0 in
    let rec walk i =
      incr count;
      let f = fires.(i) in
      let p = parent.(i) in
      let wait =
        if p < 0 then 0
        else max 0 (f.f_c - (fires.(p).f_c + fires.(p).f_lat))
      in
      let k = (f.f_task, f.f_node) in
      let cnt, lat, w =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt steps k)
      in
      Hashtbl.replace steps k (cnt + 1, lat + f.f_lat, w + wait);
      if p >= 0 then walk p else f.f_c
    in
    let start_c = walk !final in
    let fin = fires.(!final) in
    let c_steps =
      Hashtbl.fold
        (fun (tid, nid) (cs_count, cs_lat, cs_wait) acc ->
          let t = G.task c tid in
          let kind =
            match List.find_opt (fun (n : G.node) -> n.nid = nid) t.nodes with
            | Some n -> G.kind_to_string n.kind
            | None -> "?"
          in
          { cs_tname = t.tname; cs_node = nid; cs_kind = kind; cs_count;
            cs_lat; cs_wait }
          :: acc)
        steps []
      |> List.sort (fun a b ->
             compare (b.cs_lat + b.cs_wait) (a.cs_lat + a.cs_wait))
    in
    Some
      { c_len = fin.f_c + fin.f_lat - start_c; c_events = !count; c_steps }
  end

(* ------------------------------------------------------------------ *)
(* Assembly                                                             *)

(** Build a profile from a finished run's counter bank.  [?tracer]
    adds the ring-derived views — critical path, occupancy histograms,
    event totals; without one those fields are empty and everything
    else is still exact. *)
let of_run (c : G.circuit) ?tracer (ctrs : Counters.t) : t =
  let acc = ref [] in
  Counters.iter_nodes
    (fun ~task:tid ~node:nid (g : Counters.node_ctr) ->
      let t = G.task c tid in
      match List.find_opt (fun (n : G.node) -> n.nid = nid) t.nodes with
      | None -> ()
      | Some n ->
        acc :=
          { r_task = tid; r_tname = t.tname; r_node = nid;
            r_kind = G.kind_to_string n.kind;
            r_fires = g.n_fires; r_span = g.n_span;
            r_acc = Array.copy g.n_acc; r_sref = G.node_structure c n }
          :: !acc)
    ctrs;
  let rows =
    List.sort
      (fun a b ->
        compare
          (row_resource_stalls b, row_stalls b, b.r_task, b.r_node)
          (row_resource_stalls a, row_stalls a, a.r_task, a.r_node))
      !acc
  in
  let occ =
    match tracer with
    | None -> []
    | Some tr ->
      List.map
        (fun k -> (Counters.key_name c k, Tr.occupancy_hist tr k))
        (Tr.occupancy_keys tr)
  in
  { p_name = c.cname; p_cycles = ctrs.Counters.final_cycle;
    p_fires = List.fold_left (fun a r -> a + r.r_fires) 0 rows;
    p_rows = rows; p_structs = structs_of_rows c rows;
    p_crit =
      (match tracer with
      | None -> None
      | Some tr -> critical c (Tr.events tr));
    p_occ = occ;
    p_events_total =
      (match tracer with None -> 0 | Some tr -> Tr.total_events tr);
    p_events_kept =
      (match tracer with None -> 0 | Some tr -> Tr.retained_events tr) }

(* ------------------------------------------------------------------ *)
(* Report                                                               *)

let pct num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let pp_row ppf (r : row) =
  let stalls = row_stalls r in
  let causes =
    List.filteri (fun i _ -> i <> busy_i && i <> idle_i)
      (Array.to_list (Array.mapi (fun i v -> (i, v)) r.r_acc))
    |> List.filter (fun (_, v) -> v > 0)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.map (fun (i, v) ->
           Fmt.str "%s %.0f%%"
             (Counters.cause_name Counters.cause_of_index.(i))
             (pct v stalls))
  in
  Fmt.pf ppf "%-10s n%-3d %-18s fires=%-6d busy=%4.1f%% stall=%-7d %s%s"
    r.r_tname r.r_node r.r_kind r.r_fires
    (pct r.r_acc.(busy_i) r.r_span)
    stalls
    (String.concat ", " causes)
    (match r.r_sref with None -> "" | Some _ -> "")

let report ?(top = 10) ppf (p : t) =
  Fmt.pf ppf "profile %s: %d cycles, %d fires, %d events (%d retained)@."
    p.p_name p.p_cycles p.p_fires p.p_events_total p.p_events_kept;
  Fmt.pf ppf "@.top bottleneck nodes (resource stalls first, then total):@.";
  List.iteri
    (fun i r ->
      if i < top && row_stalls r > 0 then Fmt.pf ppf "  %a@." pp_row r)
    p.p_rows;
  Fmt.pf ppf "@.stall attribution by structure:@.";
  let span = List.fold_left (fun a r -> a + r.r_span) 0 p.p_rows in
  if List.for_all (fun s -> s.s_stalls = 0) p.p_structs then
    Fmt.pf ppf "  (no structure-attributed stalls)@."
  else
    List.iter
      (fun s ->
        if s.s_stalls > 0 then
          Fmt.pf ppf "  %-16s %8d cycles (%4.1f%% of node-time, %d node%s)  try %s@."
            s.s_name s.s_stalls (pct s.s_stalls span) s.s_nodes
            (if s.s_nodes = 1 then "" else "s")
            s.s_suggest)
      p.p_structs;
  (match p.p_crit with
  | None -> ()
  | Some cr ->
    Fmt.pf ppf
      "@.critical path (over retained fire events): %d cycles, %d firings@."
      cr.c_len cr.c_events;
    List.iteri
      (fun i (s : crit_step) ->
        if i < top then
          Fmt.pf ppf "  %-10s n%-3d %-18s x%-5d service=%-6d wait=%d@."
            s.cs_tname s.cs_node s.cs_kind s.cs_count s.cs_lat s.cs_wait)
      cr.c_steps);
  if p.p_occ <> [] then begin
    Fmt.pf ppf "@.occupancy histograms (depth:cycles):@.";
    List.iter
      (fun (name, hist) ->
        if hist <> [] then
          Fmt.pf ppf "  %-16s %s@." name
            (String.concat " "
               (List.map (fun (d, n) -> Fmt.str "%d:%d" d n) hist)))
      p.p_occ
  end

(* ------------------------------------------------------------------ *)
(* Dot heat overlay                                                     *)

(** Colors for `muirc dot --profile`: fill intensity follows fire
    count, the note line names the dominant stall cause. *)
let heat (p : t) : Dot.heat =
  let tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace tbl (r.r_task, r.r_node) r) p.p_rows;
  let maxf =
    List.fold_left (fun a r -> max a r.r_fires) 1 p.p_rows
  in
  let fill fires =
    (* white -> red ramp, sqrt-scaled so small counts stay visible *)
    let i = sqrt (float_of_int fires /. float_of_int maxf) in
    let g = 255 - int_of_float (195.0 *. i) in
    Fmt.str "#ff%02x%02x" g g
  in
  let h_node tid nid =
    match Hashtbl.find_opt tbl (tid, nid) with
    | None -> None
    | Some r ->
      let note =
        match dominant r with
        | Some cause ->
          Fmt.str "%d fires; %s %.0f%%" r.r_fires (Counters.cause_name cause)
            (pct (row_stalls r) r.r_span)
        | None -> Fmt.str "%d fires" r.r_fires
      in
      Some (fill r.r_fires, note)
  in
  let h_edge tid nid =
    match Hashtbl.find_opt tbl (tid, nid) with
    | None -> None
    | Some r ->
      let i = sqrt (float_of_int r.r_fires /. float_of_int maxf) in
      let v = 192 - int_of_float (160.0 *. i) in
      Some (Fmt.str "#c0%02x%02x" v v)
  in
  { Dot.h_node; h_edge }
