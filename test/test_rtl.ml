(* Tests for the RTL backend: circuit-IR lowering, the structural
   diff used by Table 4, and the Chisel emitter. *)

open Muir_core
module R = Muir_rtl.Rtl

let saxpy_src =
  {|
global float X[16]; global float Y[16];
func void main() {
  for (int i = 0; i < 16; i = i + 1) { Y[i] = 2.0 * X[i] + Y[i]; }
}|}

let circuit () = Build.circuit (Muir_frontend.Frontend.compile saxpy_src)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_lowering_size () =
  let d = Muir_rtl.Lower.design (circuit ()) in
  let comps, nets = R.size d in
  Alcotest.(check bool) "has components" true (comps > 30);
  Alcotest.(check bool) "has nets" true (nets > 20);
  let hist = R.histogram d in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true (List.mem_assoc key hist))
    [ "registers"; "alu"; "fp units"; "sram"; "arbiters"; "control" ]

let test_diff_identity () =
  let a = Muir_rtl.Lower.design (circuit ()) in
  let b = Muir_rtl.Lower.design (circuit ()) in
  Alcotest.(check (pair int int)) "identical designs diff to zero" (0, 0)
    (R.diff a b)

let test_diff_detects_change () =
  let c0 = circuit () and c1 = circuit () in
  ignore (Muir_opt.Structural.execution_tiling c1 ~tiles:2 ~task:"main.loop1");
  let dn, de =
    R.diff (Muir_rtl.Lower.design c0) (Muir_rtl.Lower.design c1)
  in
  Alcotest.(check bool) "tiling changes many rtl components" true (dn > 20);
  Alcotest.(check bool) "tiling changes many rtl nets" true (de > 10)

let test_uir_delta_much_smaller () =
  (* The Table 4 claim: the same change is orders of magnitude more
     concise at the μIR level. *)
  let c = circuit () in
  let d0 = Muir_rtl.Lower.design c in
  let rep = Muir_opt.Structural.execution_tiling c ~tiles:2 in
  let d1 = Muir_rtl.Lower.design c in
  let dn, de = R.diff d0 d1 in
  Alcotest.(check bool) "uIR delta is tiny" true
    (rep.delta_nodes + rep.delta_edges <= 8);
  Alcotest.(check bool) "rtl delta is much larger" true
    (dn + de >= 5 * (rep.delta_nodes + rep.delta_edges))

(* The circuit-IR deltas `bench table4` prints: (components, nets)
   touched by tiling 1 -> 2, adding one SRAM and op fusion. *)
let table4_deltas =
  [ ("saxpy", [ (139, 105); (4, 0); (22, 44) ]);
    ("stencil", [ (1024, 930); (6, 0); (104, 201) ]);
    ("img-scale", [ (995, 882); (4, 0); (126, 239) ]) ]

let test_table4_deltas () =
  List.iter
    (fun (name, want) ->
      let w = Muir_workloads.Workloads.find name in
      let p = Muir_workloads.Workloads.program w in
      let delta (pass : Muir_opt.Pass.t) =
        let c = Build.circuit ~name p in
        let d0 = Muir_rtl.Lower.design c in
        ignore (pass.prun c);
        R.diff d0 (Muir_rtl.Lower.design c)
      in
      Alcotest.(check (list (pair int int)))
        (name ^ ": tile, SRAM, fusion")
        want
        (List.map delta
           [ Muir_opt.Structural.tiling_pass ~tiles:2 ();
             Muir_opt.Structural.localization_pass ();
             Muir_opt.Fusion.pass ]))
    table4_deltas

let test_fusion_saves_registers () =
  let c0 = circuit () and c1 = circuit () in
  ignore (Muir_opt.Fusion.run c1);
  let regs d =
    List.fold_left
      (fun acc (c : R.component) ->
        match c.prim with R.Preg { bits } -> acc + bits | _ -> acc)
      0 d.R.comps
  in
  let r0 = regs (Muir_rtl.Lower.design c0) in
  let r1 = regs (Muir_rtl.Lower.design c1) in
  Alcotest.(check bool)
    (Fmt.str "fused design has fewer register bits (%d -> %d)" r0 r1)
    true (r1 < r0)

let test_chisel_emission () =
  let c = circuit () in
  let src = Muir_rtl.Chisel.emit c in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("emits " ^ needle) true (contains src needle))
    [ "class Main"; "class MainLoop"; "extends TaskModule";
      "LoopMergeNode"; "SteerNode"; "new Load(space ="; "Accelerator";
      "hw_l1"; "<==>"; "import chisel3._" ];
  (* every task class appears *)
  List.iter
    (fun (t : Graph.task) ->
      Alcotest.(check bool)
        (t.tname ^ " has a module class")
        true
        (contains src (Muir_rtl.Chisel.class_name t)))
    c.tasks

let test_chisel_tracks_passes () =
  let c = circuit () in
  let _ = Muir_opt.Pass.run_all [ Muir_opt.Fusion.pass ] c in
  let src = Muir_rtl.Chisel.emit c in
  Alcotest.(check bool) "fused nodes emitted" true
    (contains src "FusedSteerNode" || contains src "FusedNode")

let prop_diff_symmetric =
  QCheck.Test.make ~count:10 ~name:"rtl diff is symmetric"
    QCheck.(int_range 2 6)
    (fun tiles ->
      let c0 = circuit () and c1 = circuit () in
      ignore (Muir_opt.Structural.execution_tiling c1 ~tiles);
      let a = Muir_rtl.Lower.design c0 and b = Muir_rtl.Lower.design c1 in
      R.diff a b = R.diff b a)

let () =
  Alcotest.run "rtl"
    [ ( "lowering",
        [ Alcotest.test_case "size & histogram" `Quick test_lowering_size;
          Alcotest.test_case "fusion saves registers" `Quick
            test_fusion_saves_registers ] );
      ( "diff",
        [ Alcotest.test_case "identity" `Quick test_diff_identity;
          Alcotest.test_case "detects change" `Quick
            test_diff_detects_change;
          Alcotest.test_case "uIR much smaller (Table 4)" `Quick
            test_uir_delta_much_smaller;
          Alcotest.test_case "Table 4 deltas" `Quick test_table4_deltas ] );
      ( "chisel",
        [ Alcotest.test_case "emission" `Quick test_chisel_emission;
          Alcotest.test_case "tracks passes" `Quick
            test_chisel_tracks_passes ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_diff_symmetric ]) ]
