(* Tests for the synthesis models: the absolute numbers are estimates,
   but bands, orderings and monotonicities must hold. *)

module M = Muir_model.Model

let design_of ?(passes = []) src =
  let c = Muir_core.Build.circuit (Muir_frontend.Frontend.compile src) in
  let _ = Muir_opt.Pass.run_all passes c in
  Muir_rtl.Lower.design c

let saxpy =
  {|
global float X[16]; global float Y[16];
func void main() {
  for (int i = 0; i < 16; i = i + 1) { Y[i] = 2.0 * X[i] + Y[i]; }
}|}

let test_fpga_bands () =
  List.iter
    (fun (w : Muir_workloads.Workloads.t) ->
      let p = Muir_workloads.Workloads.program w in
      let d = Muir_rtl.Lower.design (Muir_core.Build.circuit p) in
      let f = M.fpga d in
      Alcotest.(check bool)
        (Fmt.str "%s MHz in band (got %.0f)" w.wname f.fr_mhz)
        true
        (f.fr_mhz >= 150.0 && f.fr_mhz <= 550.0);
      Alcotest.(check bool)
        (Fmt.str "%s power in band (got %.0f mW)" w.wname f.fr_mw)
        true
        (f.fr_mw >= 400.0 && f.fr_mw <= 2500.0);
      Alcotest.(check bool) "has logic" true (f.fr_alms > 500))
    [ Muir_workloads.Workloads.find "gemm";
      Muir_workloads.Workloads.find "fib";
      Muir_workloads.Workloads.find "relu[T]" ]

let test_asic_bands () =
  let d = design_of saxpy in
  let a = M.asic d in
  Alcotest.(check bool)
    (Fmt.str "GHz band (got %.2f)" a.ar_ghz)
    true
    (a.ar_ghz >= 1.0 && a.ar_ghz <= 2.5);
  Alcotest.(check bool)
    (Fmt.str "area band (got %.1f kum2)" a.ar_area)
    true
    (a.ar_area > 5.0 && a.ar_area < 500.0);
  Alcotest.(check bool) "ASIC power well below FPGA power" true
    (a.ar_mw < (M.fpga d).fr_mw /. 3.0)

let test_tiling_costs_area () =
  let d1 = design_of saxpy in
  let d2 =
    design_of
      ~passes:[ Muir_opt.Structural.tiling_pass ~scope:`All_loops ~tiles:4 () ]
      saxpy
  in
  let f1 = M.fpga d1 and f2 = M.fpga d2 in
  Alcotest.(check bool)
    (Fmt.str "4 tiles cost ALMs (%d -> %d)" f1.fr_alms f2.fr_alms)
    true
    (f2.fr_alms > 2 * f1.fr_alms);
  Alcotest.(check bool) "and power" true (f2.fr_mw > f1.fr_mw)

let test_banking_costs_brams () =
  let d1 = design_of saxpy in
  let d2 =
    design_of
      ~passes:
        [ Muir_opt.Structural.localization_pass ();
          Muir_opt.Structural.scratchpad_banking_pass ~banks:4 () ]
      saxpy
  in
  Alcotest.(check bool) "banking adds SRAM macros" true
    ((M.fpga d2).fr_brams > (M.fpga d1).fr_brams)

let test_fusion_frequency_bounded () =
  (* op fusion is delay-budgeted: the fused design may lose a little
     clock, but never more than ~20%. *)
  let d1 = design_of saxpy in
  let d2 = design_of ~passes:[ Muir_opt.Fusion.pass ] saxpy in
  let f1 = (M.fpga d1).fr_mhz and f2 = (M.fpga d2).fr_mhz in
  Alcotest.(check bool)
    (Fmt.str "clock within 20%% (%.0f -> %.0f)" f1 f2)
    true
    (f2 >= 0.8 *. f1)

let test_dense_dsp_counts () =
  (* strength reduction keeps constant-stride address math off the
     multipliers: gemm should cost ~1 DSP for its fmul *)
  let w = Muir_workloads.Workloads.find "gemm" in
  let d =
    Muir_rtl.Lower.design
      (Muir_core.Build.circuit (Muir_workloads.Workloads.program w))
  in
  Alcotest.(check bool)
    (Fmt.str "gemm DSP count small (got %d)" (M.fpga d).fr_dsps)
    true
    ((M.fpga d).fr_dsps <= 8)

(* --- monotonicity and sanity across the bundled stacks ---------------
   The design-space explorer prunes configurations whose modeled area
   exceeds the budget before simulating them; that is only sound if
   widening a knob never *shrinks* the modeled cost. *)

let par_saxpy =
  {|
global float X[16]; global float Y[16];
func void main() {
  parallel_for (int i = 0; i < 16; i = i + 1) { Y[i] = 2.5 * X[i] + Y[i]; }
  sync;
}|}

let reports_of ~tiles ~banks (s : Muir_opt.Stacks.spec) =
  let d = design_of ~passes:(s.sp_build { tiles; banks }) par_saxpy in
  (M.fpga d, M.asic d)

let test_banks_monotone () =
  List.iter
    (fun (s : Muir_opt.Stacks.spec) ->
      if s.sp_uses_banks then begin
        let sweep =
          List.map (fun banks -> reports_of ~tiles:2 ~banks s) [ 1; 2; 4; 8 ]
        in
        let rec pairs = function
          | (f1, a1) :: ((f2, a2) :: _ as tl) ->
            Alcotest.(check bool)
              (Fmt.str "%s: ALMs non-decreasing in banks (%d -> %d)"
                 s.sp_name f1.M.fr_alms f2.M.fr_alms)
              true (f2.M.fr_alms >= f1.M.fr_alms);
            Alcotest.(check bool)
              (Fmt.str "%s: ASIC area non-decreasing in banks" s.sp_name)
              true (a2.M.ar_area >= a1.M.ar_area);
            pairs tl
          | _ -> ()
        in
        pairs sweep
      end)
    Muir_opt.Stacks.registry

let test_tiles_monotone () =
  List.iter
    (fun (s : Muir_opt.Stacks.spec) ->
      if s.sp_uses_tiles then begin
        let sweep =
          List.map (fun tiles -> reports_of ~tiles ~banks:2 s) [ 1; 2; 4; 8 ]
        in
        let rec pairs = function
          | (f1, a1) :: ((f2, a2) :: _ as tl) ->
            Alcotest.(check bool)
              (Fmt.str "%s: ALMs non-decreasing in tiles (%d -> %d)"
                 s.sp_name f1.M.fr_alms f2.M.fr_alms)
              true (f2.M.fr_alms >= f1.M.fr_alms);
            Alcotest.(check bool)
              (Fmt.str "%s: ASIC area non-decreasing in tiles" s.sp_name)
              true (a2.M.ar_area >= a1.M.ar_area);
            pairs tl
          | _ -> ()
        in
        pairs sweep
      end)
    Muir_opt.Stacks.registry

let test_reports_non_negative () =
  (* every report field must be non-negative (and rates positive) for
     every bundled stack at its default parameters *)
  List.iter
    (fun (s : Muir_opt.Stacks.spec) ->
      let f, a = reports_of ~tiles:s.sp_defaults.tiles
          ~banks:s.sp_defaults.banks s
      in
      let ck name v = Alcotest.(check bool) (s.sp_name ^ ": " ^ name) true v in
      ck "MHz > 0" (f.M.fr_mhz > 0.0);
      ck "mW >= 0" (f.M.fr_mw >= 0.0);
      ck "ALMs >= 0" (f.M.fr_alms >= 0);
      ck "regs >= 0" (f.M.fr_regs >= 0);
      ck "DSPs >= 0" (f.M.fr_dsps >= 0);
      ck "BRAMs >= 0" (f.M.fr_brams >= 0);
      ck "GHz > 0" (a.M.ar_ghz > 0.0);
      ck "ASIC mW >= 0" (a.M.ar_mw >= 0.0);
      ck "ASIC area >= 0" (a.M.ar_area >= 0.0))
    Muir_opt.Stacks.registry

(* --- golden digest of synthesis ---------------------------------------
   Rtl.size, Rtl.histogram and both models' reports of one workload
   under each registry stack at its default knobs, floats printed
   exactly (%h), so a model change that moves one bit names the
   workload. *)

module W = Muir_workloads.Workloads

let render_synthesis (w : W.t) : string =
  let b = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer b in
  List.iter
    (fun (s : Muir_opt.Stacks.spec) ->
      let c = Muir_core.Build.circuit ~name:w.wname (W.program w) in
      ignore (Muir_opt.Pass.run_all (s.sp_build s.sp_defaults) c);
      let d = Muir_rtl.Lower.design c in
      let comps, nets = Muir_rtl.Rtl.size d in
      let f = M.fpga d and a = M.asic d in
      Fmt.pf ppf "== %s %d %d@." s.sp_name comps nets;
      List.iter
        (fun (k, v) -> Fmt.pf ppf "%s %d@." k v)
        (Muir_rtl.Rtl.histogram d);
      Fmt.pf ppf "fpga %h %h %d %d %d %d@." f.fr_mhz f.fr_mw f.fr_alms
        f.fr_regs f.fr_dsps f.fr_brams;
      Fmt.pf ppf "asic %h %h %h@." a.ar_ghz a.ar_mw a.ar_area)
    Muir_opt.Stacks.registry;
  Format.pp_print_flush ppf ();
  Buffer.contents b

(* One MD5 of [render_synthesis] per workload.  A change meant to move
   the model's output re-pins these on purpose. *)
let synthesis_digests =
  [ ("gemm", "3dcafbb19e53270b3d809c4a9e09838a");
    ("covar", "2ca4d63d8224c9ad982ba88c9a15ff0c");
    ("fft", "abaffc1dc1cbb2060b9322eaf314ba8c");
    ("fft-buf", "ec825a02292862e3910d4962b2f25be1");
    ("spmv", "1431fbd68e260d4b0adcf290b636277b");
    ("2mm", "9a00569406f9bf9d96bcf3b57f59d6b2");
    ("3mm", "c19b844501b3e0721bdf4635f887bdf8");
    ("fib", "a9e8bda7ecdd374f6760a93ecddba895");
    ("msort", "486eb5af5f5943b6af1e01fc21899f53");
    ("saxpy", "ed6d872c6e01e21ca295fb35df13a13e");
    ("stencil", "c2bd9e424f13781a29f104d9c4c6ee0a");
    ("img-scale", "1851174f55c684d6327cd80b590d223e");
    ("conv", "38c2ad25a2878a57a4fd4da6a9e1f0e8");
    ("dense8", "0b08593493ad6b131f8c52f4531b1ddb");
    ("dense16", "0b08593493ad6b131f8c52f4531b1ddb");
    ("softm8", "635f5dae2be5af7c34f160ba9d19fbd7");
    ("softm16", "635f5dae2be5af7c34f160ba9d19fbd7");
    ("relu[T]", "c8d8319349bc4ff22b4ac06b55a051b1");
    ("2mm[T]", "afc57521891c00e4f515846255f3cc87");
    ("conv[T]", "e8c277795bd1412922592650ebb6b94f");
    ("rgb2yuv", "dade8c631771b93ad212324d330da261");
    ("conv1d", "0ea7f3630854b49496ade2a4d0f9053a");
    ("mlp", "9ad9f5bfdae9c4141a794209c65d5833");
    ("lenet", "b7a4e236b58e2a7ace1191cb1d310066") ]

let test_synthesis_digest () =
  Alcotest.(check (list string))
    "one digest per workload"
    (List.map (fun (w : W.t) -> w.wname) W.all)
    (List.map fst synthesis_digests);
  List.iter
    (fun (w : W.t) ->
      let got = Digest.to_hex (Digest.string (render_synthesis w)) in
      Alcotest.(check string)
        (Fmt.str "%s: synthesis digest over %d stacks" w.wname
           (List.length Muir_opt.Stacks.registry))
        (List.assoc w.wname synthesis_digests)
        got)
    W.all

let prop_area_monotone_in_tiles =
  QCheck.Test.make ~count:6 ~name:"ALMs grow monotonically with tiles"
    QCheck.(int_range 1 3)
    (fun t ->
      let a =
        (M.fpga
           (design_of
              ~passes:
                [ Muir_opt.Structural.tiling_pass ~scope:`All_loops ~tiles:t () ]
              saxpy))
          .fr_alms
      in
      let b =
        (M.fpga
           (design_of
              ~passes:
                [ Muir_opt.Structural.tiling_pass ~scope:`All_loops
                    ~tiles:(t + 1) () ]
              saxpy))
          .fr_alms
      in
      b >= a)

let () =
  Alcotest.run "model"
    [ ( "bands",
        [ Alcotest.test_case "fpga" `Quick test_fpga_bands;
          Alcotest.test_case "asic" `Quick test_asic_bands ] );
      ( "orderings",
        [ Alcotest.test_case "tiling costs area" `Quick
            test_tiling_costs_area;
          Alcotest.test_case "banking costs brams" `Quick
            test_banking_costs_brams;
          Alcotest.test_case "fusion frequency bounded" `Quick
            test_fusion_frequency_bounded;
          Alcotest.test_case "dsp counts" `Quick test_dense_dsp_counts ] );
      ( "monotonicity",
        [ Alcotest.test_case "banks never shrink cost" `Quick
            test_banks_monotone;
          Alcotest.test_case "tiles never shrink cost" `Quick
            test_tiles_monotone;
          Alcotest.test_case "report fields non-negative" `Quick
            test_reports_non_negative ] );
      ( "golden",
        [ Alcotest.test_case "synthesis of workloads x stacks" `Quick
            test_synthesis_digest ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_area_monotone_in_tiles ] ) ]
