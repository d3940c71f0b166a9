(** The circuit-level IR below μIR — the moral equivalent of FIRRTL in
    the paper's comparison (§7).  A lowered design is a flat list of
    hardware components (registers, ALUs, muxes, SRAM macros,
    arbiters, queues...) and nets between them.  The synthesis model
    walks this representation to estimate area, frequency and power,
    and Table 4's "FIRRTL Δ" is a structural diff of two lowered
    designs. *)

type prim =
  | Preg of { bits : int }            (** pipeline/handshake register *)
  | Pfifo of { bits : int; depth : int }
  | Palu of { op : string; bits : int }  (** single-stage logic/arith *)
  | Pchain of { ops : string list; bits : int }  (** fused stage group *)
  | Pmul of { bits : int }
  | Pdiv of { bits : int }
  | Pfpu of { op : string }           (** FP macro (add, mul, exp, ...) *)
  | Ptensor of { shape_words : int; op : string }  (** Fig. 14 tree unit *)
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

let prim_key (p : prim) : string =
  match p with
  | Preg { bits } -> Fmt.str "reg%d" bits
  | Pfifo { bits; depth } -> Fmt.str "fifo%dx%d" bits depth
  | Palu { op; bits } -> Fmt.str "alu.%s.%d" op bits
  | Pchain { ops; bits } -> Fmt.str "chain.%s.%d" (String.concat "+" ops) bits
  | Pmul { bits } -> Fmt.str "mul%d" bits
  | Pdiv { bits } -> Fmt.str "div%d" bits
  | Pfpu { op } -> "fpu." ^ op
  | Ptensor { shape_words; op } -> Fmt.str "tensor%d.%s" shape_words op
  | Pmux { ways; bits } -> Fmt.str "mux%dx%d" ways bits
  | Pdemux { ways; bits } -> Fmt.str "demux%dx%d" ways bits
  | Parbiter { ways } -> Fmt.str "arb%d" ways
  | Psram { words; width_bits; ports } ->
    Fmt.str "sram%dx%dp%d" words width_bits ports
  | Ptag { entries } -> Fmt.str "tag%d" entries
  | Pqueue { bits; depth } -> Fmt.str "queue%dx%d" bits depth
  | Pcrossbar { ins; outs; bits } -> Fmt.str "xbar%dx%dx%d" ins outs bits
  | Pctrl { kind } -> "ctrl." ^ kind

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
  let comp_key (c : component) = (c.corigin, prim_key c.prim) in
  (* Nets are keyed by origin-pair of their endpoints' component prims;
     endpoint resolution uses each design's own table. *)
  let net_key (d : design) (n : net) =
    let find cid =
      match List.find_opt (fun c -> c.cid = cid) d.comps with
      | Some c -> (c.corigin, prim_key c.prim)
      | None -> ("?", "?")
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
