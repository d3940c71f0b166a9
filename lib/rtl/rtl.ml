(** The circuit-level IR below μIR — the moral equivalent of FIRRTL in
    the paper's comparison (§7).  A lowered design is a flat list of
    hardware components (registers, ALUs, muxes, SRAM macros,
    arbiters, queues...) and nets between them.  The synthesis model
    walks this representation to estimate area, frequency and power,
    and Table 4's "FIRRTL Δ" is a structural diff of two lowered
    designs.

    Function units keep μIR's own typed opcodes ([Graph.fu_op],
    [Graph.tensor_op]), so the model prices them from the same
    [Muir_core.Cost] table the μopt passes read, and no layer below
    [Graph] spells or parses an op name. *)

module G = Muir_core.Graph

type prim =
  | Preg of { bits : int }            (** pipeline/handshake register *)
  | Pfifo of { bits : int; depth : int }
  | Palu of { op : G.fu_op; bits : int }  (** single-stage logic/arith *)
  | Pchain of { ops : G.fu_op list; bits : int }  (** fused stage group *)
  | Pmul of { bits : int }
  | Pdiv of { bits : int }
  | Pfpu of { op : G.fu_op }          (** FP macro (add, mul, exp, ...) *)
  | Ptensor of { shape_words : int; op : G.tensor_op }
      (** Fig. 14 tree unit *)
  | Pmux of { ways : int; bits : int }
  | Pdemux of { ways : int; bits : int }
  | Parbiter of { ways : int }
  | Psram of { words : int; width_bits : int; ports : int }
  | Ptag of { entries : int }         (** cache tag/LRU array *)
  | Pqueue of { bits : int; depth : int }
  | Pcrossbar of { ins : int; outs : int; bits : int }
  | Pctrl of { kind : string }        (** misc FSM / handshake logic *)

type component = {
  cid : int;
  prim : prim;
  corigin : string;  (** task or structure this component belongs to *)
}

type net = {
  nsrc : int;
  ndst : int;
  nbits : int;
}

type design = {
  comps : component list;
  nets : net list;
}

let size (d : design) = (List.length d.comps, List.length d.nets)

(** Structural diff: how many components and nets differ between two
    designs, counted as a multiset difference keyed by (origin, prim).
    This is the number of graph elements a designer would have had to
    touch when making the change at the RTL level. *)
let diff (a : design) (b : design) : int * int =
  let bag f l =
    let h = Hashtbl.create 64 in
    List.iter
      (fun x ->
        let k = f x in
        Hashtbl.replace h k (1 + try Hashtbl.find h k with Not_found -> 0))
      l;
    h
  in
  let bag_delta ha hb =
    let keys = Hashtbl.create 64 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) ha;
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) hb;
    Hashtbl.fold
      (fun k () acc ->
        let ca = try Hashtbl.find ha k with Not_found -> 0 in
        let cb = try Hashtbl.find hb k with Not_found -> 0 in
        acc + abs (ca - cb))
      keys 0
  in
  let comp_key (c : component) = (c.corigin, c.prim) in
  (* Nets are keyed by origin-pair of their endpoints' component prims;
     endpoint resolution uses each design's own table. *)
  let net_key (d : design) (n : net) =
    let find cid =
      Option.map comp_key (List.find_opt (fun c -> c.cid = cid) d.comps)
    in
    (find n.nsrc, find n.ndst, n.nbits)
  in
  ( bag_delta (bag comp_key a.comps) (bag comp_key b.comps),
    bag_delta (bag (net_key a) a.nets) (bag (net_key b) b.nets) )

(** Aggregate component counts by primitive class (for reports). *)
let histogram (d : design) : (string * int) list =
  let h = Hashtbl.create 32 in
  List.iter
    (fun c ->
      let k =
        match c.prim with
        | Preg _ -> "registers"
        | Pfifo _ | Pqueue _ -> "fifos/queues"
        | Palu _ | Pchain _ -> "alu"
        | Pmul _ | Pdiv _ -> "int mul/div"
        | Pfpu _ -> "fp units"
        | Ptensor _ -> "tensor units"
        | Pmux _ | Pdemux _ | Pcrossbar _ -> "mux/xbar"
        | Parbiter _ -> "arbiters"
        | Psram _ | Ptag _ -> "sram"
        | Pctrl _ -> "control"
      in
      Hashtbl.replace h k (1 + try Hashtbl.find h k with Not_found -> 0))
    d.comps;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []
  |> List.sort compare

let pp_histogram ppf d =
  List.iter
    (fun (k, v) -> Fmt.pf ppf "%-14s %d@," k v)
    (histogram d)
