(** Graphviz export of μIR circuits, one cluster per task block —
    the schematic view the paper draws in Figs. 4, 5 and 8. *)

module G = Graph

let node_shape (n : G.node) : string =
  match n.kind with
  | G.Compute _ | G.Fused _ -> "box"
  | G.FusedSteer _ -> "house"
  | G.Merge _ -> "invtrapezium"
  | G.MergeLoop -> "invtriangle"
  | G.Steer -> "triangle"
  | G.Load _ | G.Tload _ -> "cylinder"
  | G.Store _ | G.Tstore _ -> "cylinder"
  | G.Tcompute _ -> "box3d"
  | G.LiveIn _ | G.LiveOut _ -> "circle"
  | G.CallChild _ | G.SpawnChild _ -> "component"
  | G.SyncWait -> "doublecircle"

let node_color (n : G.node) : string =
  match n.kind with
  | G.Load _ | G.Store _ | G.Tload _ | G.Tstore _ -> "khaki"
  | G.CallChild _ | G.SpawnChild _ | G.SyncWait -> "lightblue"
  | G.MergeLoop | G.Steer | G.FusedSteer _ -> "lightsalmon"
  | G.Tcompute _ -> "plum"
  | G.LiveIn _ | G.LiveOut _ -> "palegreen"
  | _ -> "white"

(** A profile-driven overlay (built by [Muir_trace.Profile.heat]):
    [h_node] returns a fill color plus an annotation line for a node,
    [h_edge] a color for every edge leaving it.  [None] keeps the
    static styling. *)
type heat = {
  h_node : G.task_id -> G.node_id -> (string * string) option;
  h_edge : G.task_id -> G.node_id -> string option;
}

let escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(** Render [c] as a Graphviz digraph. *)
let render ?heat (c : G.circuit) : string =
  let buf = Buffer.create 4096 in
  let p fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  p "digraph \"%s\" {" (escape c.cname);
  p "  rankdir=TB; compound=true;";
  p "  node [fontname=\"Helvetica\", fontsize=10, style=filled];";
  List.iter
    (fun (t : G.task) ->
      p "  subgraph cluster_task%d {" t.tid;
      p "    label=\"%s (%s, %d tile%s, queue %d)\";" (escape t.tname)
        (match t.tkind with
        | G.Tfunc -> "func"
        | G.Tloop { parallel = true } -> "parallel loop"
        | G.Tloop _ -> "loop")
        t.tiles
        (if t.tiles = 1 then "" else "s")
        t.queue_depth;
      p "    color=gray60; style=rounded;";
      List.iter
        (fun (n : G.node) ->
          let overlay =
            match heat with
            | Some h -> h.h_node t.tid n.nid
            | None -> None
          in
          let fill, note =
            match overlay with
            | Some (color, note) -> (Fmt.str "\"%s\"" color, "\\n" ^ escape note)
            | None -> (node_color n, "")
          in
          p "    t%d_n%d [label=\"%s%s%s\", shape=%s, fillcolor=%s];" t.tid
            n.nid
            (escape (G.kind_to_string n.kind))
            (if n.label = "" then "" else "\\n" ^ escape n.label)
            note (node_shape n) fill)
        t.nodes;
      List.iter
        (fun (e : G.edge) ->
          let attrs =
            String.concat ","
              (List.filter
                 (fun s -> s <> "")
                 [ (if e.initial <> [] then "style=dashed,label=\"primed\""
                    else "");
                   (if e.capacity > 2 then
                      Fmt.str "penwidth=2,taillabel=\"%d\"" e.capacity
                    else "");
                   (match
                      Option.bind heat (fun h -> h.h_edge t.tid (fst e.src))
                    with
                   | Some color -> Fmt.str "color=\"%s\"" color
                   | None -> "") ])
          in
          p "    t%d_n%d -> t%d_n%d [%s];" t.tid (fst e.src) t.tid
            (fst e.dst) attrs)
        t.edges;
      p "  }")
    c.tasks;
  (* task hierarchy edges *)
  List.iter
    (fun (t : G.task) ->
      List.iter
        (fun ch ->
          match (G.task c ch).nodes, t.nodes with
          | cn :: _, tn :: _ ->
            p
              "  t%d_n%d -> t%d_n%d [ltail=cluster_task%d, \
               lhead=cluster_task%d, style=bold, color=gray40];"
              t.tid tn.nid ch cn.nid t.tid ch
          | _ -> ())
        t.children)
    c.tasks;
  (* structures *)
  List.iter
    (fun (s : G.struct_inst) ->
      p "  struct%d [label=\"%s\", shape=cylinder, fillcolor=gold];" s.sid
        (escape (Fmt.str "%a" G.pp_structure s)))
    c.structures;
  List.iter
    (fun (sp, sid) ->
      (* connect each task that touches this space to the structure *)
      List.iter
        (fun (t : G.task) ->
          let touches =
            List.exists
              (fun n -> G.node_space n = Some sp)
              (G.memory_nodes t)
          in
          if touches then
            match G.memory_nodes t with
            | m :: _ ->
              p "  t%d_n%d -> struct%d [style=dotted, dir=both];" t.tid
                m.nid sid
            | [] -> ())
        c.tasks)
    c.space_map;
  p "}";
  Buffer.contents buf
