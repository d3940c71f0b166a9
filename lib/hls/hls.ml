(** Commercial-HLS baseline model (the §5.2 comparison).

    LegUp and Intel HLS are closed/unavailable, so this models their
    documented execution style:

    - each basic block is statically list-scheduled against a fixed
      resource budget and sequenced by a central FSM;
    - only innermost loops are pipelined; nested loops are serialized
      (an inner loop fully drains before the outer iteration
      continues) — the paper calls this out for GEMM/2MM/3MM;
    - the initiation interval of a pipelined loop is bounded by memory
      ports, loop-carried floating-point reductions, and
      memory-carried dependences;
    - when an innermost loop's accesses are all affine in its
      induction variable, the tool infers streaming buffers
      (burst-friendly, two effective ports, no external latency) —
      this is how HLS wins on FFT/DENSE in Fig. 9;
    - the synthesized clock is ~20% below the μIR dataflow clock
      (shallow statically-scheduled stages vs deep elastic
      pipelines — §5.2 Observation 1).

    Dynamic totals come from driving the golden interpreter and
    charging each basic-block visit its static cost.  The calibration
    below is one fixed tool configuration; every comparison in the
    paper runs against it. *)

open Muir_ir
module I = Instr
module F = Func

let mem_ports = 1

(* II of a pipelined loop with a floating-point reduction: the
   synthesized adder's full latency (statically scheduled tools cannot
   retime around it). *)
let carried_fp_ii = 7.0

let nonstream_mem_latency = 3.0  (* per access, II contribution *)
let carried_mem_ii = 9.0

(* Compulsory off-chip traffic cost per 8-word line. *)
let burst_cycles_per_line = 16.0

let clock_ratio = 1.2  (* μIR MHz / HLS MHz *)

let op_latency (k : I.kind) : float =
  match k with
  | I.Bin (I.Mul, _, _) -> 3.0
  | I.Bin ((I.Sdiv | I.Srem), _, _) -> 16.0
  | I.Fbin ((I.Fadd | I.Fsub | I.Fmul), _, _) -> 4.0
  | I.Fbin (I.Fdiv, _, _) -> 16.0
  | I.Funary ((I.Fexp | I.Fsqrt), _) -> 16.0
  | I.Fcmp _ -> 2.0
  | I.Load _ | I.Tload _ -> 2.0
  | I.Store _ | I.Tstore _ -> 1.0
  | I.Tbin (I.Tmul, _, _) -> 24.0 (* sequenced over shared FUs *)
  | I.Tbin (I.Tadd, _, _) -> 10.0
  | I.Tunary (I.Trelu, _) -> 6.0
  | I.Call _ | I.Spawn _ -> 2.0
  | _ -> 1.0

(** Critical-path length of one block under the static schedule. *)
let block_critical_path (b : F.block) : float =
  let depth : (I.reg, float) Hashtbl.t = Hashtbl.create 16 in
  let d_of op =
    match op with
    | I.Reg r -> ( try Hashtbl.find depth r with Not_found -> 0.0)
    | _ -> 0.0
  in
  List.fold_left
    (fun acc (ins : I.t) ->
      let start =
        List.fold_left (fun m op -> Float.max m (d_of op)) 0.0
          (I.operands ins)
      in
      let fin = start +. op_latency ins.kind in
      Hashtbl.replace depth ins.id fin;
      Float.max acc fin)
    1.0 b.instrs

let mem_ops (b : F.block) =
  List.filter (fun i -> I.is_memory i) b.instrs

(** Syntactic affine-in-induction check: the access's index expression
    mentions the loop's header phi. *)
let rec index_uses_phi (f : F.t) (phis : I.reg list) (op : I.operand)
    ~(fuel : int) : bool =
  if fuel = 0 then false
  else
    match op with
    | I.Reg r when List.mem r phis -> true
    | I.Reg r -> (
      match F.find_instr f r with
      | Some { kind = I.Gep { base; index; _ }; _ } ->
        index_uses_phi f phis base ~fuel:(fuel - 1)
        || index_uses_phi f phis index ~fuel:(fuel - 1)
      | Some { kind = I.Bin (_, a, b); _ } ->
        index_uses_phi f phis a ~fuel:(fuel - 1)
        || index_uses_phi f phis b ~fuel:(fuel - 1)
      | _ -> false)
    | _ -> false

(** Memory ops of an access are "streaming" when the address is a
    direct affine function of the loop induction (global base + index
    expression over the phi). *)
let streaming_access (f : F.t) (phis : I.reg list) (ins : I.t) : bool =
  let addr_op =
    match ins.kind with
    | I.Load { addr } | I.Store { addr; _ } -> Some addr
    | I.Tload { addr; _ } | I.Tstore { addr; _ } -> Some addr
    | _ -> None
  in
  match addr_op with
  | Some (I.Reg r) -> (
    match F.find_instr f r with
    | Some { kind = I.Gep { base = I.GlobalAddr _; index; _ }; _ } ->
      index_uses_phi f phis index ~fuel:8
    | _ -> false)
  | _ -> false

(** Carried memory dependence: a store and a load on the same global
    whose address computations are not the identical instruction. *)
let carried_memory (f : F.t) (body_blocks : F.block list) : bool =
  let base_of (ins : I.t) =
    let addr =
      match ins.kind with
      | I.Load { addr } | I.Store { addr; _ } -> Some addr
      | I.Tload { addr; _ } | I.Tstore { addr; _ } -> Some addr
      | _ -> None
    in
    match addr with
    | Some (I.Reg r) -> (
      match F.find_instr f r with
      | Some { kind = I.Gep { base = I.GlobalAddr g; index; _ }; _ } ->
        Some (g, Some index)
      | _ -> Some ("?", None))
    | Some (I.GlobalAddr g) -> Some (g, None)
    | _ -> None
  in
  let ops = List.concat_map mem_ops body_blocks in
  let stores = List.filter (fun (i : I.t) -> I.has_side_effect i) ops in
  List.exists
    (fun (s : I.t) ->
      match base_of s with
      | Some (g, si) ->
        List.exists
          (fun (l : I.t) ->
            (not (I.has_side_effect l))
            &&
            match base_of l with
            | Some (g', li) -> g = g' && (si = None || li = None || si <> li)
            | None -> true)
          ops
      | None -> true)
    stores

(** Loop-carried FP reduction: a float-typed header phi. *)
let carried_fp (header : F.block) : bool =
  List.exists
    (fun (ins : I.t) ->
      match ins.kind, ins.ty with
      | I.Phi _, Types.TFloat -> true
      | _ -> false)
    header.instrs

type sched = {
  cost : (string * I.label, float) Hashtbl.t;   (** per-visit cycles *)
  loop_ii : (string * I.label, float) Hashtbl.t;  (** per innermost loop *)
}

(** Build the static schedule of every function. *)
let analyze (prog : Program.t) : sched =
  let cost = Hashtbl.create 64 and loop_ii = Hashtbl.create 16 in
  List.iter
    (fun (f : F.t) ->
      let innermost =
        List.filter
          (fun (l : F.loop_info) ->
            not
              (List.exists
                 (fun (l' : F.loop_info) ->
                   l'.header <> l.header && List.mem l'.header l.body)
                 f.loops))
          f.loops
      in
      (* default: every block costs its static schedule *)
      List.iter
        (fun (b : F.block) ->
          Hashtbl.replace cost (f.name, b.label) (block_critical_path b))
        f.blocks;
      List.iter
        (fun (l : F.loop_info) ->
          let body_blocks = List.map (F.block f) l.body in
          let header = F.block f l.header in
          let phis =
            List.filter_map
              (fun (i : I.t) ->
                match i.kind with I.Phi _ -> Some i.id | _ -> None)
              header.instrs
          in
          let ops = List.concat_map mem_ops body_blocks in
          let streaming =
            ops <> [] && List.for_all (streaming_access f phis) ops
          in
          let ports =
            if streaming then float_of_int (2 * mem_ports)
            else float_of_int mem_ports
          in
          let mem_ii = float_of_int (List.length ops) /. ports in
          let mem_ii =
            if streaming then mem_ii
            else
              mem_ii
              +. (nonstream_mem_latency
                  *. float_of_int (List.length ops) /. 4.0)
          in
          let ii = Float.max 1.0 mem_ii in
          let ii =
            if carried_fp header then Float.max ii carried_fp_ii
            else ii
          in
          let ii =
            if carried_memory f body_blocks then
              Float.max ii carried_mem_ii
            else ii
          in
          Hashtbl.replace loop_ii (f.name, l.header) ii;
          (* charge II once per iteration at the header; body blocks of
             the pipelined loop are covered by it *)
          Hashtbl.replace cost (f.name, l.header) ii;
          List.iter
            (fun lbl ->
              if lbl <> l.header then Hashtbl.replace cost (f.name, lbl) 0.0)
            l.body;
          (* pipeline fill/drain, charged once per invocation at exit *)
          let fill =
            List.fold_left
              (fun acc b -> acc +. block_critical_path b)
              0.0 body_blocks
          in
          let prev = try Hashtbl.find cost (f.name, l.exit) with Not_found -> 1.0 in
          Hashtbl.replace cost (f.name, l.exit) (prev +. fill))
        innermost)
    prog.funcs;
  { cost; loop_ii }

type result = {
  hls_cycles : float;
  clock_ratio : float;  (** divide the μIR clock by this for HLS MHz *)
}

(** Execute [prog] under the HLS timing model. *)
let run (prog : Program.t) : result =
  let sched = analyze prog in
  let total = ref 0.0 in
  let on_block fname lbl =
    total :=
      !total
      +. (try Hashtbl.find sched.cost (fname, lbl) with Not_found -> 1.0)
  in
  let _ = Interp.run ~on_block prog in
  (* Compulsory off-chip traffic: every array crosses the AXI bus at
     least once, in line-sized bursts — the same cold traffic the μIR
     cache pays. *)
  let lines =
    List.fold_left
      (fun acc (g : Program.global) -> acc + ((g.gsize + 7) / 8))
      0 prog.globals
  in
  total := !total +. (float_of_int lines *. burst_cycles_per_line);
  { hls_cycles = !total; clock_ratio }
