(* Tests for behaviour-level loop unrolling (lib/ir/unroll.ml). *)

open Muir_ir
open Sim_harness

let test_unrolls_counted_loop () =
  let src =
    {|
global float X[8]; global float O[1];
func void main() {
  float acc = 0.0;
  for (int i = 0; i < 8; i = i + 1) { acc = acc + X[i]; }
  O[0] = acc;
}|}
  in
  let p = program ~inits:[ ("X", farr (List.init 8 float_of_int)) ] src in
  let n = Unroll.unroll p in
  Alcotest.(check int) "one loop unrolled" 1 n;
  Verify.check_exn p;
  let f = Program.find_func p "main" in
  Alcotest.(check (list int)) "no loops remain" []
    (List.map (fun (l : Func.loop_info) -> l.header) f.loops);
  let _, mem, _ = Interp.run p in
  Alcotest.check value_testable "sum preserved" (Types.VFloat 28.0)
    (Memory.dump_global mem p "O").(0)

(* The trip count is Loops.trip_count's: any comparison, either step
   direction.  Each loop unrolls and the program keeps its results. *)
let test_other_comparisons () =
  List.iter
    (fun (what, header) ->
      let src =
        Fmt.str
          {|
global float X[16]; global float O[2];
func void main() {
  float acc = 0.0;
  int last = 0;
  for (%s) { acc = acc + X[i]; last = i; }
  O[0] = acc;
  O[1] = float(last);
}|}
          header
      in
      let inits = [ ("X", farr (List.init 16 float_of_int)) ] in
      let p0 = program ~inits src in
      let _, m0, _ = golden p0 in
      let p1 = program ~inits src in
      Alcotest.(check int) (what ^ ": one loop unrolled") 1 (Unroll.unroll p1);
      Verify.check_exn p1;
      let _, m1, _ = golden p1 in
      Array.iteri
        (fun i x ->
          Alcotest.check value_testable (Fmt.str "%s: O[%d]" what i) x
            (Memory.dump_global m1 p1 "O").(i))
        (Memory.dump_global m0 p0 "O"))
    [ ("<=", "int i = 0; i <= 7; i = i + 1");
      ("< short of the bound", "int i = 0; i < 8; i = i + 3");
      ("downward >", "int i = 9; i > 1; i = i - 2");
      ("downward >= short of the bound", "int i = 15; i >= 2; i = i - 4");
      ("!=", "int i = 0; i != 12; i = i + 3") ]

let test_respects_max_trip () =
  let src =
    {|
global float O[1];
func void main() {
  float acc = 0.0;
  for (int i = 0; i < 100; i = i + 1) { acc = acc + 1.0; }
  O[0] = acc;
}|}
  in
  let p = program src in
  Alcotest.(check int) "trip 100 > max 16: untouched" 0 (Unroll.unroll p);
  (* The count stops one trip past [max_trip]: 16 trips still unroll,
     17 do not, and neither does a [!=] loop that never meets its
     bound. *)
  List.iter
    (fun (what, header, expect) ->
      let p =
        program
          (Fmt.str
             {|
global int O[1];
func void main() {
  int a = 0;
  for (%s) { a = a + i; }
  O[0] = a;
}|}
             header)
      in
      Alcotest.(check int) what expect (Unroll.unroll p))
    [ ("16 trips: unrolled", "int i = 0; i < 16; i = i + 1", 1);
      ("17 trips: untouched", "int i = 0; i < 17; i = i + 1", 0);
      ("never meets its bound: untouched", "int i = 0; i != 7; i = i + 2", 0) ]

let test_skips_dynamic_bounds () =
  let src =
    {|
global float O[1];
func float f(int n) {
  float acc = 0.0;
  for (int i = 0; i < n; i = i + 1) { acc = acc + 1.0; }
  return acc;
}
func void main() { O[0] = f(5); }|}
  in
  let p = program src in
  Alcotest.(check int) "dynamic bound: untouched" 0 (Unroll.unroll p)

let test_skips_loops_with_calls () =
  let src =
    {|
global float O[4];
func void leaf(int i) { O[i] = 1.0; }
func void main() {
  for (int i = 0; i < 4; i = i + 1) { leaf(i); }
}|}
  in
  let p = program src in
  Alcotest.(check int) "call in body: untouched" 0 (Unroll.unroll p)

let test_unrolled_inner_loop_of_nest () =
  let src =
    {|
global float A[16]; global float O[4];
func void main() {
  for (int i = 0; i < 4; i = i + 1) {
    float acc = 0.0;
    for (int j = 0; j < 4; j = j + 1) { acc = acc + A[i*4+j]; }
    O[i] = acc;
  }
}|}
  in
  let inits = [ ("A", farr (List.init 16 float_of_int)) ] in
  let p = program ~inits src in
  let _, gold, _ = golden p in
  Alcotest.(check int) "inner loop unrolled" 1 (Unroll.unroll p);
  Verify.check_exn p;
  (* and the unrolled program still simulates correctly *)
  let r = simulate p in
  let a = Memory.dump_global gold p "O" in
  let b = Memory.dump_global r.memory p "O" in
  Array.iteri
    (fun i x ->
      Alcotest.check value_testable (Fmt.str "O[%d]" i) x b.(i))
    a

let test_unroll_improves_ilp () =
  let src =
    {|
global float A[64]; global float O[16];
func void main() {
  for (int i = 0; i < 16; i = i + 1) {
    float acc = 0.0;
    for (int j = 0; j < 4; j = j + 1) { acc = acc + A[i*4+j]; }
    O[i] = acc;
  }
}|}
  in
  let inits = [ ("A", farr (List.init 64 float_of_int)) ] in
  let rolled = (simulate (program ~inits src)).stats.total_cycles in
  let p = program ~inits src in
  ignore (Unroll.unroll p);
  let unrolled = (simulate p).stats.total_cycles in
  Alcotest.(check bool)
    (Fmt.str "unrolled is faster (%d -> %d)" rolled unrolled)
    true (unrolled < rolled)

(* Property: a loop of [trips] iterations stepping [stride] up or down,
   under a strict, inclusive or [!=] exit test, unrolls and keeps its
   results.  The strict and inclusive bounds lie up to [stride - 1]
   past the last value the induction variable takes, so the loop need
   not hit its bound exactly; a [!=] bound is hit exactly. *)
let prop_unroll_preserves_semantics =
  QCheck.Test.make ~count:50 ~name:"unroll preserves program results"
    QCheck.(
      pair
        (quad (int_range 1 12) (int_range 1 4) (oneofl [ "<"; "<="; "!=" ])
           bool)
        (int_range 0 3))
    (fun ((trips, stride, test, down), slack) ->
      let slack = slack mod stride in
      let step = if down then -stride else stride in
      let first = if down then 2 - ((trips - 1) * step) else 0 in
      let last = first + ((trips - 1) * step) in
      let cmp, bound =
        match (test, down) with
        | "<", false -> ("<", last + 1 + slack)
        | "<", true -> (">", last - 1 - slack)
        | "<=", false -> ("<=", last + slack)
        | "<=", true -> (">=", last - slack)
        | _ -> ("!=", last + step)
      in
      let src =
        Fmt.str
          {|
global float X[64]; global float O[2];
func void main() {
  float acc = 0.0;
  int last = 0;
  for (int i = %d; i %s %d; i = i %s %d) {
    acc = acc + X[i] * 2.0;
    last = i;
  }
  O[0] = acc;
  O[1] = float(last);
}|}
          first cmp bound
          (if down then "-" else "+")
          stride
      in
      let inits = [ ("X", farr (List.init 64 (fun i -> float_of_int i *. 0.25))) ] in
      let p0 = program ~inits src in
      let _, m0, _ = golden p0 in
      let p1 = program ~inits src in
      let n = Unroll.unroll p1 in
      let _, m1, _ = golden p1 in
      let a = Memory.dump_global m0 p0 "O" in
      let b = Memory.dump_global m1 p1 "O" in
      n = 1 && Array.for_all2 Types.value_close a b)

let () =
  Alcotest.run "unroll"
    [ ( "transform",
        [ Alcotest.test_case "counted loop" `Quick test_unrolls_counted_loop;
          Alcotest.test_case "other comparisons" `Quick
            test_other_comparisons;
          Alcotest.test_case "max trip" `Quick test_respects_max_trip;
          Alcotest.test_case "dynamic bounds" `Quick test_skips_dynamic_bounds;
          Alcotest.test_case "calls in body" `Quick
            test_skips_loops_with_calls;
          Alcotest.test_case "inner loop of nest" `Quick
            test_unrolled_inner_loop_of_nest;
          Alcotest.test_case "improves ILP" `Quick test_unroll_improves_ilp ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_unroll_preserves_semantics ] ) ]
