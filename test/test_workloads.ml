(* Workload integration suite: every bundled benchmark must compile,
   validate, and simulate to the golden interpreter's results — both
   baseline and under the per-category stack that bench/baseline.json
   records as best.  A handful of workloads are additionally checked
   against independent OCaml reference implementations, so the
   interpreter itself is cross-validated. *)

open Muir_ir
module W = Muir_workloads.Workloads
module Pipeline = Muir_pipeline.Pipeline

let floats_of mem p name =
  Array.map
    (fun v ->
      match (v : Types.value) with
      | Types.VFloat f -> f
      | Types.VInt i -> Int64.to_float i
      | v -> Alcotest.failf "non-scalar %s" (Types.value_to_string v))
    (Memory.dump_global mem p name)

let close a b =
  let d = Float.abs (a -. b) in
  d <= 1e-3 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_floats name expected actual =
  Array.iteri
    (fun i e ->
      if not (close e actual.(i)) then
        Alcotest.failf "%s[%d]: expected %g, got %g" name i e actual.(i))
    expected

(* --- every workload, baseline + stacked ---------------------------- *)

let sim_matches_golden ?(passes = []) (w : W.t) =
  let p = W.program w in
  let _, gold, _ = Interp.run p in
  let c = Muir_core.Build.circuit ~name:w.wname p in
  Alcotest.(check (list string))
    "circuit validates" []
    (List.map
       (Fmt.str "%a" Muir_core.Validate.pp_error)
       (Muir_core.Validate.validate c));
  let _ = Muir_opt.Pass.run_all passes c in
  let r = Muir_sim.Sim.run c in
  match Memory.first_mismatch p w.outputs ~golden:gold r.memory with
  | None -> ()
  | Some (g, i, x, y) ->
    Alcotest.failf "%s: %s[%d] golden=%s sim=%s" w.wname g i
      (Types.value_to_string x) (Types.value_to_string y)

let baseline_cases =
  List.map
    (fun (w : W.t) ->
      Alcotest.test_case w.wname `Quick (fun () -> sim_matches_golden w))
    W.all

let stacked_cases =
  List.map
    (fun (w : W.t) ->
      Alcotest.test_case w.wname `Slow (fun () ->
          sim_matches_golden ~passes:(Pipeline.per_category w) w))
    W.all

(* --- independent references ---------------------------------------- *)

let run_golden (w : W.t) =
  let p = W.program w in
  let _, mem, _ = Interp.run p in
  (p, mem)

let init_floats (w : W.t) name =
  match List.assoc_opt name w.inits with
  | Some a ->
    Array.map
      (function
        | Types.VFloat f -> f
        | Types.VInt i -> Int64.to_float i
        | _ -> 0.0)
      a
  | None -> Alcotest.failf "no init for %s" name

let test_gemm_reference () =
  let w = W.find "gemm" in
  let n = 16 in
  let a = init_floats w "A" and b = init_floats w "B" in
  let expected =
    Array.init (n * n) (fun idx ->
        let i = idx / n and j = idx mod n in
        let acc = ref 0.0 in
        for k = 0 to n - 1 do
          acc := !acc +. (a.((i * n) + k) *. b.((k * n) + j))
        done;
        !acc)
  in
  let p, mem = run_golden w in
  check_floats "gemm C" expected (floats_of mem p "C")

let test_fft_reference () =
  (* Cross-check the radix-2 FFT against a naive O(n^2) DFT. *)
  let w = W.find "fft" in
  let n = 64 in
  let re = init_floats w "RE" and im = init_floats w "IM" in
  let exp_re = Array.make n 0.0 and exp_im = Array.make n 0.0 in
  for k = 0 to n - 1 do
    for t = 0 to n - 1 do
      let ang = -2.0 *. Float.pi *. float_of_int (k * t) /. float_of_int n in
      let c = Float.cos ang and s = Float.sin ang in
      exp_re.(k) <- exp_re.(k) +. (re.(t) *. c) -. (im.(t) *. s);
      exp_im.(k) <- exp_im.(k) +. (re.(t) *. s) +. (im.(t) *. c)
    done
  done;
  let p, mem = run_golden w in
  check_floats "fft RE" exp_re (floats_of mem p "RE");
  check_floats "fft IM" exp_im (floats_of mem p "IM")

let test_msort_reference () =
  let w = W.find "msort" in
  let a = init_floats w "A" in
  let expected = Array.copy a in
  Array.sort compare expected;
  let p, mem = run_golden w in
  check_floats "msort A" expected (floats_of mem p "A")

let test_softmax_reference () =
  let w = W.find "softm8" in
  let x = init_floats w "X" in
  let batch = 16 and classes = 8 in
  let expected = Array.make (batch * classes) 0.0 in
  for b = 0 to batch - 1 do
    let row = Array.sub x (b * classes) classes in
    let m = Array.fold_left Float.max neg_infinity row in
    let e = Array.map (fun v -> Float.exp (v -. m)) row in
    let s = Array.fold_left ( +. ) 0.0 e in
    Array.iteri (fun c v -> expected.((b * classes) + c) <- v /. s) e
  done;
  let p, mem = run_golden w in
  check_floats "softmax Y" expected (floats_of mem p "Y")

let test_conv1d_reference () =
  let w = W.find "conv1d" in
  let input = init_floats w "INPUT" and weight = init_floats w "WEIGHT" in
  let m = Array.length input and k = Array.length weight in
  let expected =
    Array.init (m - k) (fun i ->
        let acc = ref 0.0 in
        for j = 0 to k - 1 do
          acc := !acc +. (input.(i + j) *. weight.(j))
        done;
        !acc)
  in
  let p, mem = run_golden w in
  check_floats "conv1d OUTPUT" expected (floats_of mem p "OUTPUT")

let test_rgb2yuv_reference () =
  let w = W.find "rgb2yuv" in
  let r = init_floats w "R" and g = init_floats w "G"
  and b = init_floats w "B" in
  let expected_y =
    Array.init (Array.length r) (fun i ->
        (0.299 *. r.(i)) +. (0.587 *. g.(i)) +. (0.114 *. b.(i)))
  in
  let p, mem = run_golden w in
  check_floats "Y" expected_y (floats_of mem p "YY")

let test_fib_value () =
  let w = W.find "fib" in
  let p, mem = run_golden w in
  let out = Memory.dump_global mem p "OUT" in
  Alcotest.(check bool) "fib(15) = 610" true
    (Types.value_close out.(0) (Types.vint 610))

let () =
  Alcotest.run "workloads"
    [ ("baseline-vs-golden", baseline_cases);
      ("stacked-vs-golden", stacked_cases);
      ( "references",
        [ Alcotest.test_case "gemm" `Quick test_gemm_reference;
          Alcotest.test_case "fft vs naive DFT" `Quick test_fft_reference;
          Alcotest.test_case "mergesort" `Quick test_msort_reference;
          Alcotest.test_case "softmax" `Quick test_softmax_reference;
          Alcotest.test_case "conv1d" `Quick test_conv1d_reference;
          Alcotest.test_case "rgb2yuv" `Quick test_rgb2yuv_reference;
          Alcotest.test_case "fib" `Quick test_fib_value ] ) ]
