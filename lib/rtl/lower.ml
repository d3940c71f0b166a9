(** Lowering μIR circuits to the component-level design (Stage 3 of
    the toolchain, minus the Scala syntax — see {!Chisel} for that).

    The lowering is deliberately literal so that the cycle-level
    behaviour the simulator measures corresponds one-to-one with the
    hardware the model prices:

    - every μIR node becomes its function unit plus per-node handshake
      control; fused nodes share a single output register — that is
      the area/latency the fusion pass saves;
    - every registered μIR edge becomes a handshake stage (a register,
      or a FIFO when the balancing pass deepened it);
    - each task gets its invocation queue; tiled tasks are replicated
      and fed by a dispatch crossbar;
    - per-space junctions become arbiters; scratchpads and caches
      become SRAM macros (plus tag arrays) per bank. *)

module G = Muir_core.Graph
module T = Muir_ir.Types
open Rtl

type ctx = {
  mutable comps : component list;
  mutable nets : net list;
  mutable next_cid : int;
}

let add (ctx : ctx) ~(origin : string) (prim : prim) : int =
  let cid = ctx.next_cid in
  ctx.next_cid <- cid + 1;
  ctx.comps <- { cid; prim; corigin = origin } :: ctx.comps;
  cid

let wire (ctx : ctx) ~(bits : int) (src : int) (dst : int) =
  ctx.nets <- { nsrc = src; ndst = dst; nbits = bits } :: ctx.nets

let bits_of_ty (ty : T.ty) =
  match ty with
  | T.TPtr -> 32 (* address-bus width of the local memory map *)
  | ty -> max 1 (T.ty_bits ty)

(** Function-unit component(s) of a compute opcode. *)
let fu_prim (op : G.fu_op) ~(bits : int) : prim =
  match op with
  | G.Fibin Muir_ir.Instr.Mul -> Pmul { bits }
  | G.Fibin (Muir_ir.Instr.Sdiv | Muir_ir.Instr.Srem) -> Pdiv { bits }
  | G.Ffbin _ | G.Ffcmp _ | G.Ffunary _ -> Pfpu { op }
  | op -> Palu { op; bits }

(** Lower one task (one tile's worth); [origin] distinguishes tiles. *)
let lower_task (ctx : ctx) (c : G.circuit) (t : G.task) ~(origin : string) :
    unit =
  let node_comp : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* Nodes *)
  List.iter
    (fun (n : G.node) ->
      let bits = bits_of_ty n.nty in
      let cid =
        match n.kind with
        | G.Compute op ->
          let fu = add ctx ~origin (fu_prim op ~bits) in
          let org = add ctx ~origin (Preg { bits }) in
          wire ctx ~bits fu org;
          ignore (add ctx ~origin (Pctrl { kind = "hs" }));
          fu
        | G.Fused ops | G.FusedSteer ops ->
          let fu = add ctx ~origin (Pchain { ops; bits }) in
          let org = add ctx ~origin (Preg { bits }) in
          wire ctx ~bits fu org;
          ignore (add ctx ~origin (Pctrl { kind = "hs" }));
          (match n.kind with
          | G.FusedSteer _ -> ignore (add ctx ~origin (Pdemux { ways = 2; bits }))
          | _ -> ());
          fu
        | G.Merge k ->
          let m = add ctx ~origin (Pmux { ways = k; bits }) in
          ignore (add ctx ~origin (Pctrl { kind = "merge" }));
          let org = add ctx ~origin (Preg { bits }) in
          wire ctx ~bits m org;
          m
        | G.MergeLoop ->
          let m = add ctx ~origin (Pmux { ways = 2; bits }) in
          ignore (add ctx ~origin (Pctrl { kind = "mu" }));
          let org = add ctx ~origin (Preg { bits }) in
          wire ctx ~bits m org;
          m
        | G.Steer ->
          let d = add ctx ~origin (Pdemux { ways = 2; bits }) in
          ignore (add ctx ~origin (Pctrl { kind = "steer" }));
          d
        | G.Load _ | G.Store _ ->
          (* databox slice: address/data staging + handshake *)
          let d = add ctx ~origin (Pctrl { kind = "databox" }) in
          ignore (add ctx ~origin (Preg { bits = 64 }));
          d
        | G.Tload { shape; _ } | G.Tstore { shape; _ } ->
          let d = add ctx ~origin (Pctrl { kind = "databox.t" }) in
          ignore
            (add ctx ~origin (Preg { bits = 32 * T.shape_words shape }));
          d
        | G.Tcompute { top; dedicated } ->
          if dedicated then
            add ctx ~origin (Ptensor { shape_words = 4; op = top })
          else begin
            (* shared scalar FUs + sequencing control *)
            let m = add ctx ~origin (Pfpu { op = G.Ffbin Fmul }) in
            ignore (add ctx ~origin (Pfpu { op = G.Ffbin Fadd }));
            ignore (add ctx ~origin (Pctrl { kind = "tensor.seq" }));
            ignore (add ctx ~origin (Preg { bits = 128 }));
            m
          end
        | G.LiveIn _ | G.LiveOut _ ->
          let r = add ctx ~origin (Preg { bits }) in
          ignore (add ctx ~origin (Pctrl { kind = "port" }));
          r
        | G.CallChild _ | G.SpawnChild _ ->
          let r = add ctx ~origin (Pctrl { kind = "taskport" }) in
          ignore (add ctx ~origin (Preg { bits = 64 }));
          r
        | G.SyncWait -> add ctx ~origin (Pctrl { kind = "join" })
      in
      Hashtbl.replace node_comp n.nid cid)
    t.nodes;
  (* Edges: handshake stages *)
  List.iter
    (fun (e : G.edge) ->
      let src = Hashtbl.find node_comp (fst e.src) in
      let dst = Hashtbl.find node_comp (fst e.dst) in
      let bits = bits_of_ty (G.node t (fst e.src)).nty in
      let stage =
        if e.capacity <= 2 then add ctx ~origin (Preg { bits })
        else add ctx ~origin (Pfifo { bits; depth = e.capacity })
      in
      wire ctx ~bits src stage;
      wire ctx ~bits stage dst)
    t.edges;
  (* Per-space junction arbiters. *)
  let spaces =
    List.sort_uniq compare
      (List.filter_map G.node_space (G.memory_nodes t))
  in
  List.iter
    (fun sp ->
      let ways =
        List.length
          (List.filter
             (fun n -> G.node_space n = Some sp)
             (G.memory_nodes t))
      in
      if ways > 0 then begin
        let arb = add ctx ~origin (Parbiter { ways }) in
        let w = G.junction_width c t.tid in
        if w > 1 then
          ignore (add ctx ~origin (Pcrossbar { ins = ways; outs = w; bits = 64 }));
        ignore arb
      end)
    spaces

let lower_structure (ctx : ctx) (s : G.struct_inst) : unit =
  let origin = "structure:" ^ s.sname in
  match s.shape with
  | G.Scratchpad { banks; ports_per_bank; width_words; wb_buffer; _ } ->
    if wb_buffer then
      ignore (add ctx ~origin (Pfifo { bits = 96; depth = 8 }));
    for _ = 1 to banks do
      ignore
        (add ctx ~origin
           (Psram { words = 1024; width_bits = 32 * width_words;
                    ports = ports_per_bank }))
    done;
    ignore (add ctx ~origin (Pctrl { kind = "dma" }));
    if banks > 1 then ignore (add ctx ~origin (Parbiter { ways = banks }))
  | G.Cache { banks; line_words; size_words; ways; _ } ->
    for _ = 1 to banks do
      ignore
        (add ctx ~origin
           (Psram { words = size_words / banks; width_bits = 32 * line_words;
                    ports = 1 }));
      ignore
        (add ctx ~origin
           (Ptag { entries = size_words / (line_words * banks) }))
    done;
    ignore (add ctx ~origin (Pctrl { kind = Fmt.str "cache.%dway" ways }));
    if banks > 1 then ignore (add ctx ~origin (Parbiter { ways = banks }))

(** Lower a whole μIR circuit to the component-level design. *)
let design (c : G.circuit) : design =
  let ctx = { comps = []; nets = []; next_cid = 0 } in
  List.iter
    (fun (t : G.task) ->
      for tile = 0 to t.tiles - 1 do
        let origin =
          if t.tiles = 1 then t.tname else Fmt.str "%s.tile%d" t.tname tile
        in
        lower_task ctx c t ~origin
      done;
      (* task queue + dispatch *)
      let qbits = 32 * List.length t.arg_tys in
      ignore
        (add ctx ~origin:t.tname (Pqueue { bits = qbits; depth = t.queue_depth }));
      if t.tiles > 1 then
        ignore
          (add ctx ~origin:t.tname
             (Pcrossbar { ins = 1; outs = t.tiles; bits = qbits })))
    c.tasks;
  List.iter (lower_structure ctx) c.structures;
  (* AXI interface to DRAM/CPU *)
  ignore (add ctx ~origin:"top" (Pctrl { kind = "axi" }));
  { comps = List.rev ctx.comps; nets = List.rev ctx.nets }
