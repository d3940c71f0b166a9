(** Synthesis models: estimate FPGA (Arria-10-class) and ASIC (28 nm)
    area, frequency and power from the component-level design.

    This replaces the paper's Quartus and Synopsys DC runs (see the
    substitution table in DESIGN.md).  Per-primitive costs are
    calibrated so baseline accelerators land in the bands Table 2
    reports (FPGA 200–500 MHz / 0.5–1.5 W, ASIC 1.6–2.5 GHz /
    17–150 mW); relative ordering between designs derives entirely
    from circuit structure.  Frequency is the reciprocal of the worst
    per-stage combinational delay — every stage is registered in the
    dataflow, so fused chains are the main lever on the critical
    path (which is why op fusion is delay-bounded). *)

open Muir_rtl.Rtl
module Cost = Muir_core.Cost

(** Per-component FPGA costs. *)
type fpga_cost = {
  alms : int;
  regs : int;
  dsps : int;
  brams : int;
  delay_ns : float;  (** per-stage combinational delay *)
}

(* A LUT stage's delay is its op's {!Muir_core.Cost.fu_raw_delay} in
   adder units, one adder unit = 1.55 ns at our FPGA node, plus the
   per-stage handshake/routing overhead once — which is exactly what
   fusing a chain into one stage group saves. *)
let stage_overhead = 0.65
let adder_ns = 1.55

let fpga_cost (p : prim) : fpga_cost =
  let z = { alms = 0; regs = 0; dsps = 0; brams = 0; delay_ns = 0.5 } in
  match p with
  | Preg { bits } -> { z with regs = bits; alms = bits / 10; delay_ns = 0.6 }
  | Pfifo { bits; depth } ->
    { z with regs = bits; alms = (bits * depth / 6) + 8; delay_ns = 1.2 }
  | Pqueue { bits; depth } ->
    { z with regs = bits; alms = (bits * depth / 6) + 20; delay_ns = 2.4 }
  | Palu { op; bits } ->
    let alms =
      match op with
      | Fibin (And | Or | Xor) -> bits / 3
      | Fibin (Shl | Lshr | Ashr) -> bits / 2
      | Fselect | Fident -> bits / 4
      | _ -> bits / 2 + 6
    in
    { z with alms;
      delay_ns = stage_overhead +. (adder_ns *. Cost.fu_raw_delay op) }
  | Pchain { ops; bits } ->
    (* The technology mapper packs a chained ALU group into shared
       LUT/carry structures, so the group's delay is sub-additive. *)
    { z with
      alms = List.length ops * ((bits / 2) + 4);
      delay_ns =
        stage_overhead +. (0.72 *. adder_ns *. Cost.chain_delay ops) }
  | Pmul { bits } -> { z with dsps = (bits + 17) / 18; alms = 30; delay_ns = 2.6 }
  | Pdiv { bits } -> { z with alms = bits * 14; delay_ns = 2.9 }
  | Pfpu { op = Ffunary (Fexp | Fsqrt) } ->
    { z with alms = 900; dsps = 2; regs = 700; delay_ns = 2.4 }
  | Pfpu { op = Ffbin Fmul } ->
    { z with alms = 220; dsps = 1; regs = 260; delay_ns = 2.2 }
  | Pfpu _ -> { z with alms = 420; regs = 320; delay_ns = 2.2 }
  | Ptensor { shape_words; op = Tmul2 } ->
    { z with dsps = 3 * shape_words; alms = 340; regs = 420; delay_ns = 1.9 }
  | Ptensor { shape_words; _ } ->
    { z with alms = 90 * shape_words; regs = 200; delay_ns = 1.6 }
  | Pmux { ways; bits } ->
    let lg = int_of_float (Float.ceil (Float.log2 (float_of_int (max 2 ways)))) in
    { z with alms = bits * lg / 3;
      delay_ns = 0.8 +. (0.3 *. float_of_int lg) }
  | Pdemux { ways; bits } ->
    { z with alms = bits * ways / 6; delay_ns = 0.9 }
  | Parbiter { ways } ->
    (* log-depth round-robin arbitration tree *)
    let lg = Float.log2 (float_of_int (max 2 ways)) in
    { z with alms = 12 * ways; delay_ns = 0.9 +. (0.35 *. lg) }
  | Psram { words; width_bits; ports } ->
    (* capacity is [words] 32-bit words regardless of access width *)
    ignore width_bits;
    { z with
      brams = max 1 (words * 32 / 20_000) * ports;
      alms = 25;
      delay_ns = 2.0 }
  | Ptag { entries } -> { z with alms = entries / 2 + 30; delay_ns = 2.2 }
  | Pcrossbar { ins; outs; bits } ->
    let lg = Float.log2 (float_of_int (max 2 (ins * outs))) in
    { z with alms = ins * outs * bits / 10;
      delay_ns = 1.0 +. (0.3 *. lg) }
  | Pctrl { kind } -> (
    match kind with
    | "hs" | "merge" | "mu" | "steer" -> { z with alms = 5; regs = 4; delay_ns = 0.9 }
    | "databox" -> { z with alms = 45; regs = 50; delay_ns = 1.8 }
    | "databox.t" -> { z with alms = 90; regs = 90; delay_ns = 1.9 }
    | "taskport" -> { z with alms = 60; regs = 70; delay_ns = 2.6 }
    | "join" -> { z with alms = 35; regs = 30; delay_ns = 2.2 }
    | "port" -> { z with alms = 8; regs = 6; delay_ns = 0.8 }
    | "dma" -> { z with alms = 160; regs = 150; delay_ns = 2.0 }
    | "axi" -> { z with alms = 420; regs = 500; delay_ns = 2.2 }
    | "tensor.seq" -> { z with alms = 70; regs = 40; delay_ns = 1.6 }
    | k when String.length k >= 5 && String.sub k 0 5 = "cache" ->
      { z with alms = 380; regs = 300; delay_ns = 2.5 }
    | _ -> { z with alms = 20; regs = 15; delay_ns = 1.2 })

type fpga_report = {
  fr_mhz : float;
  fr_mw : float;
  fr_alms : int;
  fr_regs : int;
  fr_dsps : int;
  fr_brams : int;
}

type asic_report = {
  ar_ghz : float;
  ar_mw : float;
  ar_area : float;  (** 10^3 µm² of logic+SRAM at 28 nm *)
}

(** FPGA synthesis estimate. *)
let fpga (d : design) : fpga_report =
  let alms = ref 0 and regs = ref 0 and dsps = ref 0 and brams = ref 0 in
  let crit = ref 0.0 in
  List.iter
    (fun c ->
      let k = fpga_cost c.prim in
      alms := !alms + k.alms;
      regs := !regs + k.regs;
      dsps := !dsps + k.dsps;
      brams := !brams + k.brams;
      if k.delay_ns > !crit then crit := k.delay_ns)
    d.comps;
  (* Interconnect penalty grows slowly with design size. *)
  let wire = 0.55 +. (0.04 *. Float.log (float_of_int (1 + !alms))) in
  let mhz = 1000.0 /. (!crit +. wire) in
  let dynamic =
    (float_of_int !alms *. 0.055)
    +. (float_of_int !regs *. 0.035)
    +. (float_of_int !dsps *. 11.0)
    +. (float_of_int !brams *. 7.0)
  in
  let mw = 420.0 +. (dynamic *. (mhz /. 400.0)) in
  { fr_mhz = mhz; fr_mw = mw; fr_alms = !alms; fr_regs = !regs;
    fr_dsps = !dsps; fr_brams = !brams }

(** ASIC (28 nm) synthesis estimate, derived from the same component
    walk: standard cells are ~4x faster than FPGA fabric and far
    denser; SRAM macros dominate area. *)
let asic (d : design) : asic_report =
  let area = ref 0.0 and crit = ref 0.0 and cap = ref 0.0 in
  List.iter
    (fun c ->
      let k = fpga_cost c.prim in
      (* Logic area only, in µm² — the paper's ASIC area column
         excludes the SRAM macros (64 KB alone would dwarf the
         reported figures).  One ALM of logic is a handful of 28 nm
         standard cells (~6 µm²); a flop ~2.5 µm²; a DSP-mapped
         multiplier ~800 µm². *)
      area :=
        !area
        +. (float_of_int k.alms *. 6.0)
        +. (float_of_int k.regs *. 2.5)
        +. (float_of_int k.dsps *. 800.0);
      cap :=
        !cap
        +. (float_of_int k.alms *. 0.004)
        +. (float_of_int k.regs *. 0.003)
        +. (float_of_int k.dsps *. 0.8);
      if k.delay_ns > !crit then crit := k.delay_ns)
    d.comps;
  let ghz = Float.min 2.5 (5.0 /. (!crit +. 0.6)) in
  let mw = 3.0 +. (0.6 *. !cap *. ghz) in
  { ar_ghz = ghz; ar_mw = mw; ar_area = !area /. 1000.0 }

let pp_fpga ppf (r : fpga_report) =
  Fmt.pf ppf "%4.0f MHz %5.0f mW %6d ALMs %6d regs %3d DSP %3d BRAM"
    r.fr_mhz r.fr_mw r.fr_alms r.fr_regs r.fr_dsps r.fr_brams

let pp_asic ppf (r : asic_report) =
  Fmt.pf ppf "%5.1f kum2 %5.1f mW %4.2f GHz" r.ar_area r.ar_mw r.ar_ghz
