(* μopt pass tests: every pass must (1) keep the circuit valid,
   (2) preserve functional behaviour, and (3) move performance in the
   documented direction on a workload it targets. *)

open Sim_harness
module G = Muir_core.Graph
module Opt = Muir_opt

let saxpy_src n =
  Fmt.str
    {|
global float X[%d]; global float Y[%d];
func void main() {
  for (int i = 0; i < %d; i = i + 1) { Y[i] = 2.5 * X[i] + Y[i]; }
}|}
    n n n

let saxpy_inits n = [ ("X", farr (List.init n float_of_int)) ]

let par_src n =
  Fmt.str
    {|
global float X[%d]; global float Y[%d];
func void main() {
  parallel_for (int i = 0; i < %d; i = i + 1) { Y[i] = 2.5 * X[i] + 1.0; }
  sync;
}|}
    n n n

let tensor_src =
  {|
global float A[64]; global float B[64]; global float C[64];
func void main() {
  for (int i = 0; i < 4; i = i + 1) {
    for (int j = 0; j < 4; j = j + 1) {
      tile acc = tmul(tload(A, i*16, 8), tload(B, j*2, 8));
      for (int k = 1; k < 4; k = k + 1) {
        acc = tadd(acc, tmul(tload(A, i*16 + k*2, 8), tload(B, k*16 + j*2, 8)));
      }
      tstore(C, i*16 + j*2, 8, acc);
    }
  }
}|}

let tensor_inits =
  [ ("A", farr (List.init 64 (fun i -> float_of_int (i mod 7))));
    ("B", farr (List.init 64 (fun i -> float_of_int ((i mod 5) - 2)))) ]

let cycles ?(passes = []) ?inits ~globals name src =
  (check_against_golden ~passes ?inits ~globals name src).stats.total_cycles

(* --- individual passes --------------------------------------------- *)

let test_fusion_correct_and_faster () =
  let base = cycles ~inits:(saxpy_inits 128) ~globals:[ "Y" ] "base" (saxpy_src 128) in
  let fused =
    cycles
      ~passes:[ Opt.Structural.localization_pass (); Opt.Fusion.pass ]
      ~inits:(saxpy_inits 128) ~globals:[ "Y" ] "fused" (saxpy_src 128)
  in
  Alcotest.(check bool)
    (Fmt.str "fusion+localization speeds saxpy up (%d -> %d)" base fused)
    true (fused < base)

let test_fusion_creates_fused_nodes () =
  let p = program (saxpy_src 16) in
  let c = Muir_core.Build.circuit p in
  let r = Opt.Fusion.run c in
  Alcotest.(check bool) "some nodes fused" true (r.delta_nodes > 0);
  Muir_core.Validate.check_exn c;
  let any_fused =
    List.exists
      (fun (t : G.task) ->
        List.exists
          (fun (n : G.node) ->
            match n.kind with
            | G.Fused _ | G.FusedSteer _ -> true
            | _ -> false)
          t.nodes)
      c.tasks
  in
  Alcotest.(check bool) "fused kinds present" true any_fused

let test_tiling_scales_parallel_loop () =
  (* Row-parallel stencil-like workload: each spawned body runs an
     inner loop, so replicating the body's execution subtree buys real
     task-level parallelism (Fig. 12's shape). *)
  let src =
    {|
global float IN[64]; global float OUT[64];
func void main() {
  parallel_for (int r = 0; r < 8; r = r + 1) {
    for (int c = 0; c < 8; c = c + 1) {
      OUT[r*8+c] = exp(IN[r*8+c]) + 1.0;
    }
  }
  sync;
}|}
  in
  let inits = [ ("IN", farr (List.init 64 (fun i -> float_of_int i /. 64.))) ] in
  let run tiles =
    cycles
      ~passes:
        [ Opt.Structural.localization_pass ();
          Opt.Structural.scratchpad_banking_pass ~banks:4 ();
          Opt.Structural.tiling_pass ~tiles () ]
      ~inits ~globals:[ "OUT" ]
      (Fmt.str "tiles%d" tiles) src
  in
  let t1 = run 1 and t4 = run 4 in
  Alcotest.(check bool)
    (Fmt.str "4 tiles faster than 1 (%d -> %d)" t1 t4)
    true
    (float_of_int t4 < 0.7 *. float_of_int t1);
  (* Flat memory-bound parallel loops still improve, just less. *)
  let flat tiles =
    cycles
      ~passes:[ Opt.Structural.tiling_pass ~tiles () ]
      ~inits:(saxpy_inits 64) ~globals:[ "Y" ]
      (Fmt.str "flat tiles%d" tiles) (par_src 64)
  in
  let f1 = flat 1 and f4 = flat 4 in
  Alcotest.(check bool)
    (Fmt.str "flat parallel loop not slower (%d -> %d)" f1 f4)
    true (f4 <= f1)

let test_tiling_scales_recursion () =
  let src =
    {|
func int fib(int n) {
  if (n < 2) { return n; }
  int a = spawn fib(n - 1);
  int b = spawn fib(n - 2);
  sync;
  return a + b;
}
func int main() { int r = fib(11); return r; }|}
  in
  let run tiles =
    (check_against_golden
       ~passes:[ Opt.Structural.tiling_pass ~tiles () ]
       ~globals:[] (Fmt.str "fib tiles%d" tiles) src)
      .stats.total_cycles
  in
  let t1 = run 1 and t8 = run 8 in
  Alcotest.(check bool)
    (Fmt.str "8 tiles much faster (%d -> %d)" t1 t8)
    true
    (float_of_int t8 < 0.4 *. float_of_int t1)

let test_localization_adds_scratchpads () =
  let p = program (saxpy_src 16) in
  let c = Muir_core.Build.circuit p in
  let r = Opt.Structural.memory_localization c in
  Alcotest.(check int) "two scratchpads (X, Y)" 2 r.delta_nodes;
  Muir_core.Validate.check_exn c;
  let spads =
    List.filter
      (fun (s : G.struct_inst) ->
        match s.shape with G.Scratchpad _ -> true | _ -> false)
      c.structures
  in
  Alcotest.(check int) "structures added" 2 (List.length spads)

let test_localization_skips_large_arrays () =
  let p = program (saxpy_src 16) in
  let c = Muir_core.Build.circuit p in
  let r = Opt.Structural.memory_localization ~max_words:8 c in
  Alcotest.(check int) "arrays over budget stay cached" 0 r.delta_nodes

let test_banking_params () =
  let p = program (saxpy_src 16) in
  let c = Muir_core.Build.circuit p in
  ignore (Opt.Structural.memory_localization c);
  ignore (Opt.Structural.scratchpad_banking ~banks:4 c);
  List.iter
    (fun (s : G.struct_inst) ->
      match s.shape with
      | G.Scratchpad { banks; _ } -> Alcotest.(check int) "banks" 4 banks
      | G.Cache _ -> ())
    c.structures;
  (* junctions widened for tasks with memory ops *)
  let loop =
    List.find
      (fun (t : G.task) -> G.memory_nodes t <> [])
      c.tasks
  in
  Alcotest.(check int) "junction width" 4 (G.junction_width c loop.tid)

let test_cache_banking_faster () =
  let src =
    {|
global float A[256]; global float B[256]; global float O[256];
func void main() {
  for (int i = 0; i < 256; i = i + 1) { O[i] = A[i] + B[i]; }
}|}
  in
  let inits =
    [ ("A", farr (List.init 256 float_of_int));
      ("B", farr (List.init 256 (fun i -> float_of_int (255 - i)))) ]
  in
  let b1 = cycles ~inits ~globals:[ "O" ] "bank1" src in
  let b4 =
    cycles
      ~passes:[ Opt.Structural.cache_banking_pass ~banks:4 () ]
      ~inits ~globals:[ "O" ] "bank4" src
  in
  Alcotest.(check bool)
    (Fmt.str "4 cache banks faster (%d -> %d)" b1 b4)
    true (b4 < b1)

let test_tensor_pass () =
  let base = cycles ~inits:tensor_inits ~globals:[ "C" ] "tensor base" tensor_src in
  let opt =
    cycles
      ~passes:(Opt.Stacks.tensor_stack ())
      ~inits:tensor_inits ~globals:[ "C" ] "tensor opt" tensor_src
  in
  Alcotest.(check bool)
    (Fmt.str "tensor units >=2x faster (%d -> %d)" base opt)
    true
    (float_of_int opt < 0.5 *. float_of_int base)

let test_queuing_report () =
  let p = program (par_src 16) in
  let c = Muir_core.Build.circuit p in
  let r = Opt.Structural.task_queuing c in
  Alcotest.(check bool) "touched all tasks" true (r.delta_nodes > 0);
  List.iter
    (fun (t : G.task) -> Alcotest.(check int) "depth set" 16 t.queue_depth)
    c.tasks

let test_stacks_compose () =
  List.iter
    (fun (name, passes, src, inits, globals) ->
      ignore (check_against_golden ~passes ~inits ~globals name src))
    [ ("cilk stack", Opt.Stacks.cilk_stack (), par_src 32,
       saxpy_inits 32, [ "Y" ]);
      ("loop stack", Opt.Stacks.loop_stack (), saxpy_src 32,
       saxpy_inits 32, [ "Y" ]);
      ("tensor stack", Opt.Stacks.tensor_stack (), tensor_src,
       tensor_inits, [ "C" ]);
      ("all", Opt.Stacks.all (), saxpy_src 32, saxpy_inits 32, [ "Y" ]) ]

(* Property: random pass subsets preserve functional behaviour. *)
let prop_pass_subsets_preserve_semantics =
  let all_passes =
    [| ("fuse", Opt.Fusion.pass);
       ("tile", Opt.Structural.tiling_pass ~tiles:2 ());
       ("local", Opt.Structural.localization_pass ());
       ("sbank", Opt.Structural.scratchpad_banking_pass ~banks:2 ());
       ("cbank", Opt.Structural.cache_banking_pass ~banks:2 ());
       ("queue", Opt.Structural.queuing_pass ());
       ("tensor", Opt.Tensor.pass) |]
  in
  QCheck.Test.make ~count:20 ~name:"random pass stacks preserve semantics"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 5) (int_range 0 6))
    (fun picks ->
      let passes = List.map (fun i -> snd all_passes.(i)) picks in
      let src = saxpy_src 24 in
      let p = program ~inits:(saxpy_inits 24) src in
      let _, gold, _ = golden p in
      let r = simulate ~passes p in
      let a = Muir_ir.Memory.dump_global gold p "Y" in
      let b = Muir_ir.Memory.dump_global r.memory p "Y" in
      Array.for_all2 Muir_ir.Types.value_close a b)

let () =
  Alcotest.run "muopt"
    [ ( "passes",
        [ Alcotest.test_case "fusion faster" `Quick
            test_fusion_correct_and_faster;
          Alcotest.test_case "fusion nodes" `Quick
            test_fusion_creates_fused_nodes;
          Alcotest.test_case "tiling parallel loop" `Quick
            test_tiling_scales_parallel_loop;
          Alcotest.test_case "tiling recursion" `Slow
            test_tiling_scales_recursion;
          Alcotest.test_case "localization" `Quick
            test_localization_adds_scratchpads;
          Alcotest.test_case "localization budget" `Quick
            test_localization_skips_large_arrays;
          Alcotest.test_case "banking params" `Quick test_banking_params;
          Alcotest.test_case "cache banking faster" `Quick
            test_cache_banking_faster;
          Alcotest.test_case "tensor pass" `Quick test_tensor_pass;
          Alcotest.test_case "queuing" `Quick test_queuing_report;
          Alcotest.test_case "stacks compose" `Quick test_stacks_compose ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_pass_subsets_preserve_semantics ]
      ) ]
