(** Trace exporters: Chrome trace-event JSON (load in Perfetto or
    [chrome://tracing]) and VCD (any waveform viewer).  Both render
    the ring's retained window; 1 cycle = 1 µs in Chrome, 1 ns in VCD. *)

module G = Muir_core.Graph
module J = Json

(** The Chrome trace-event document: [events] under ["traceEvents"],
    milliseconds as the display unit, and [other] as ["otherData"].
    The one writer of the format — the simulator timeline ({!chrome})
    and the request spans ([Muir_obs.Span.chrome]) both print through
    it, so both load into the same viewer.  Each event is printed as
    the sequence yields it, so a full ring never exists as one tree. *)
let document ?other (events : J.t Seq.t) : string =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf {|{"traceEvents":[|};
  Seq.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      J.print buf ev)
    events;
  Buffer.add_string buf {|],"displayTimeUnit":"ms"|};
  Option.iter
    (fun o ->
      Buffer.add_string buf {|,"otherData":|};
      J.print buf o)
    other;
  Buffer.add_char buf '}';
  Buffer.contents buf

let node_name (c : G.circuit) (tid : int) (nid : int) : string =
  match
    List.find_opt
      (fun (n : G.node) -> n.nid = nid)
      (G.task c tid).nodes
  with
  | Some n ->
    if n.label = "" then Fmt.str "n%d %s" nid (G.kind_to_string n.kind)
    else Fmt.str "n%d %s [%s]" nid (G.kind_to_string n.kind) n.label
  | None -> Fmt.str "n%d" nid

(** Chrome trace-event JSON.  One process per task (pid = task id,
    named via metadata events), one thread per node; firings are "X"
    complete events spanning the node latency, stall transitions are
    "i" instants, occupancy samples are "C" counter series under a
    dedicated counters process. *)
let chrome (c : G.circuit) (tr : Trace.t) : string =
  let counters_pid = 1_000_000 in
  let meta name pid tid label =
    J.Obj
      [ ("ph", J.Str "M"); ("name", J.Str name); ("pid", J.Int pid);
        ("tid", J.Int tid); ("args", J.Obj [ ("name", J.Str label) ]) ]
  in
  let metadata =
    List.concat_map
      (fun (t : G.task) ->
        meta "process_name" t.tid 0 ("task " ^ t.tname)
        :: List.map
             (fun (n : G.node) ->
               meta "thread_name" t.tid n.nid (node_name c t.tid n.nid))
             t.nodes)
      c.tasks
    @ [ meta "process_name" counters_pid 0 "occupancy" ]
  in
  let event = function
    | Trace.Efire { c = cyc; task; inst; node; lat } ->
      J.Obj
        [ ("ph", J.Str "X"); ("name", J.Str (node_name c task node));
          ("cat", J.Str "fire"); ("pid", J.Int task); ("tid", J.Int node);
          ("ts", J.Int cyc); ("dur", J.Int (max lat 1));
          ("args", J.Obj [ ("inst", J.Int inst) ]) ]
    | Trace.Estall { c = cyc; task; inst; node; cause } ->
      J.Obj
        [ ("ph", J.Str "i"); ("name", J.Str (Counters.cause_name cause));
          ("cat", J.Str "stall"); ("s", J.Str "t"); ("pid", J.Int task);
          ("tid", J.Int node); ("ts", J.Int cyc);
          ("args", J.Obj [ ("inst", J.Int inst) ]) ]
    | Trace.Eocc { c = cyc; key; depth } ->
      J.Obj
        [ ("ph", J.Str "C"); ("name", J.Str (Counters.key_name c key));
          ("pid", J.Int counters_pid); ("ts", J.Int cyc);
          ("args", J.Obj [ ("depth", J.Int depth) ]) ]
  in
  document
    ~other:
      (J.Obj [ ("circuit", J.Str c.cname); ("cycles", J.Int tr.final_cycle) ])
    (Seq.append (List.to_seq metadata)
       (Seq.map event (List.to_seq (Trace.events tr))))

(* ------------------------------------------------------------------ *)
(* VCD                                                                  *)

(** Printable VCD identifier for wire [i]: base-94 over '!'..'~'. *)
let vcd_id (i : int) : string =
  let rec go i acc =
    let acc = String.make 1 (Char.chr (33 + (i mod 94))) ^ acc in
    if i < 94 then acc else go ((i / 94) - 1) acc
  in
  go i ""

let sanitize (s : string) : string =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    s

let binary_of_int (v : int) : string =
  if v = 0 then "0"
  else begin
    let rec go v acc = if v = 0 then acc else go (v / 2) (string_of_int (v mod 2) ^ acc) in
    go v ""
  end

(** VCD dump of the retained window: a 1-bit fire pulse per node
    (grouped in one scope per task) and a 16-bit occupancy bus per
    task queue / memory structure.  Fire wires auto-clear the cycle
    after they pulse. *)
let vcd (c : G.circuit) (tr : Trace.t) : string =
  let buf = Buffer.create 65536 in
  let p fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  p "$date 0 $end";
  p "$version muir trace $end";
  p "$timescale 1ns $end";
  (* wire ids *)
  let next = ref 0 in
  let fresh () =
    let id = vcd_id !next in
    incr next;
    id
  in
  let fire_ids = Hashtbl.create 64 in
  p "$scope module %s $end" (sanitize c.cname);
  List.iter
    (fun (t : G.task) ->
      p "$scope module %s $end" (sanitize t.tname);
      List.iter
        (fun (n : G.node) ->
          let id = fresh () in
          Hashtbl.replace fire_ids (t.tid, n.nid) id;
          p "$var wire 1 %s n%d_%s $end" id n.nid
            (sanitize (G.kind_to_string n.kind)))
        t.nodes;
      p "$upscope $end")
    c.tasks;
  let occ_ids = Hashtbl.create 8 in
  let occ_keys = Trace.occupancy_keys tr in
  if occ_keys <> [] then begin
    p "$scope module occupancy $end";
    List.iter
      (fun key ->
        let id = fresh () in
        Hashtbl.replace occ_ids key id;
        p "$var wire 16 %s %s $end" id (sanitize (Counters.key_name c key)))
      occ_keys;
    p "$upscope $end"
  end;
  p "$upscope $end";
  p "$enddefinitions $end";
  (* initial values *)
  p "#0";
  Hashtbl.iter (fun _ id -> p "0%s" id) fire_ids;
  Hashtbl.iter (fun _ id -> p "b0 %s" id) occ_ids;
  (* dump: group events by cycle, clearing fire pulses one ns later *)
  let cur = ref (-1) in
  let hot = ref [] in
  let open_cycle cyc =
    if cyc <> !cur then begin
      (* clear last cycle's pulses at cur+1 (never later than cyc) *)
      if !hot <> [] then begin
        p "#%d" (!cur + 1);
        List.iter (fun id -> p "0%s" id) !hot;
        hot := []
      end;
      p "#%d" cyc;
      cur := cyc
    end
  in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Efire { c = cyc; task; node; _ } -> (
        open_cycle cyc;
        match Hashtbl.find_opt fire_ids (task, node) with
        | Some id ->
          p "1%s" id;
          if not (List.mem id !hot) then hot := id :: !hot
        | None -> ())
      | Trace.Eocc { c = cyc; key; depth } -> (
        open_cycle cyc;
        match Hashtbl.find_opt occ_ids key with
        | Some id -> p "b%s %s" (binary_of_int depth) id
        | None -> ())
      | Trace.Estall _ -> ())
    (Trace.events tr);
  if !hot <> [] then begin
    p "#%d" (!cur + 1);
    List.iter (fun id -> p "0%s" id) !hot
  end;
  p "#%d" (max tr.final_cycle (!cur + 2));
  Buffer.contents buf
