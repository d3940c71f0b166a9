(* End-to-end front-end tests: source text -> IR -> golden interpreter. *)

open Muir_ir
open Muir_ir.Types

let value_testable =
  Alcotest.testable Types.pp_value (fun a b -> Types.value_close a b)

let farr l = Array.of_list (List.map (fun f -> VFloat f) l)
let iarr l = Array.of_list (List.map (fun i -> vint i) l)

let run ?(inits = []) ?(args = []) ?entry src =
  let p = Muir_frontend.Frontend.compile src in
  let p = Program.with_init p inits in
  let v, mem, _ = Interp.run ?entry ~args p in
  (v, mem, p)

let floats mem p name =
  Array.to_list (Memory.dump_global mem p name)
  |> List.map (function
       | VFloat f -> f
       | VInt i -> Int64.to_float i
       | v -> Alcotest.failf "expected float, got %s" (value_to_string v))

let check_floats msg expected actual =
  Alcotest.(check (list (float 1e-4))) msg expected actual

(* ------------------------------------------------------------------ *)

let saxpy_src =
  {|
global float X[8];
global float Y[8];
func void main() {
  for (int i = 0; i < 8; i = i + 1) {
    Y[i] = 2.5 * X[i] + Y[i];
  }
}
|}

let test_saxpy () =
  let x = List.init 8 float_of_int in
  let y = List.init 8 (fun i -> float_of_int (10 * i)) in
  let _, mem, p =
    run ~inits:[ ("X", farr x); ("Y", farr y) ] saxpy_src
  in
  let expected = List.map2 (fun a b -> (2.5 *. a) +. b) x y in
  check_floats "saxpy result" expected (floats mem p "Y")

let test_parallel_saxpy () =
  let src =
    {|
global float X[8];
global float Y[8];
func void main() {
  float a = 2.5;
  parallel_for (int i = 0; i < 8; i = i + 1) {
    Y[i] = a * X[i] + Y[i];
  }
}
|}
  in
  let x = List.init 8 float_of_int in
  let y = List.init 8 (fun _ -> 1.0) in
  let _, mem, p = run ~inits:[ ("X", farr x); ("Y", farr y) ] src in
  let expected = List.map2 (fun a b -> (2.5 *. a) +. b) x y in
  check_floats "parallel saxpy" expected (floats mem p "Y");
  (* The parallel body was outlined into its own function. *)
  Alcotest.(check bool) "outlined body exists" true
    (Program.has_func p "main_par0")

(* A user function already named like the body a parallel_for
   outlines: the body takes the next free name, and the program
   simulates as the golden interpreter runs it. *)
let test_outlined_name_taken () =
  let src =
    {|
global int A[8];
func void main_par0(int i) { A[i] = A[i] + 100; }
func void main() {
  parallel_for (int i = 0; i < 8; i = i + 1) { A[i] = i * 2; }
  main_par0(3);
}
|}
  in
  let p = Muir_frontend.Frontend.compile src in
  let names = List.map (fun (f : Func.t) -> f.name) p.funcs in
  Alcotest.(check (list string)) "one function per name"
    (List.sort_uniq compare names) (List.sort compare names);
  ignore (Sim_harness.check_against_golden ~globals:[ "A" ] "taken" src)

let test_gemm () =
  let n = 4 in
  let src =
    Fmt.str
      {|
global float A[%d];
global float B[%d];
global float C[%d];
func void main() {
  for (int i = 0; i < %d; i = i + 1) {
    for (int j = 0; j < %d; j = j + 1) {
      float acc = 0.0;
      for (int k = 0; k < %d; k = k + 1) {
        acc = acc + A[i * %d + k] * B[k * %d + j];
      }
      C[i * %d + j] = acc;
    }
  }
}
|}
      (n * n) (n * n) (n * n) n n n n n n
  in
  let a = List.init (n * n) (fun i -> float_of_int (i mod 5)) in
  let b = List.init (n * n) (fun i -> float_of_int ((i mod 3) - 1)) in
  let _, mem, p = run ~inits:[ ("A", farr a); ("B", farr b) ] src in
  let aa = Array.of_list a and ba = Array.of_list b in
  let expected =
    List.init (n * n) (fun idx ->
        let i = idx / n and j = idx mod n in
        let acc = ref 0.0 in
        for k = 0 to n - 1 do
          acc := !acc +. (aa.((i * n) + k) *. ba.((k * n) + j))
        done;
        !acc)
  in
  check_floats "gemm" expected (floats mem p "C")

let test_condition_phi () =
  let src =
    {|
global int O[10];
func void main() {
  for (int i = 0; i < 10; i = i + 1) {
    int v = 0;
    if (i % 2 == 0) { v = i * 10; } else { v = i + 100; }
    O[i] = v;
  }
}
|}
  in
  let _, mem, p = run src in
  let expected =
    List.init 10 (fun i ->
        float_of_int (if i mod 2 = 0 then i * 10 else i + 100))
  in
  check_floats "if/else phi" expected (floats mem p "O")

let test_fib_spawn () =
  let src =
    {|
func int fib(int n) {
  if (n < 2) { return n; }
  int a = spawn fib(n - 1);
  int b = spawn fib(n - 2);
  sync;
  return a + b;
}
func int main() {
  int r = fib(15);
  return r;
}
|}
  in
  let v, _, _ = run src in
  Alcotest.check value_testable "fib(15)" (vint 610) v

let test_while_loop () =
  let src =
    {|
func int main() {
  int x = 1;
  int n = 0;
  while (x < 1000) {
    x = x * 2;
    n = n + 1;
  }
  return n;
}
|}
  in
  let v, _, _ = run src in
  Alcotest.check value_testable "log2 steps" (vint 10) v

let test_ternary_minmax_cast () =
  let src =
    {|
global float O[4];
func void main() {
  int a = min(3, 7);
  int b = max(3, 7);
  float f = float(a + b);
  O[0] = f;
  O[1] = f > 5.0 ? 1.0 : 0.0;
  O[2] = fmax(2.5, -2.5);
  O[3] = sqrt(16.0) + abs(-2.0);
}
|}
  in
  let _, mem, p = run src in
  check_floats "ternary/minmax/cast" [ 10.0; 1.0; 2.5; 6.0 ]
    (floats mem p "O")

let test_tile_ops () =
  let src =
    {|
global float A[16];
global float B[16];
global float C[16];
func void main() {
  /* multiply 2x2 tiles at the four quadrants of 4x4 matrices */
  for (int ti = 0; ti < 2; ti = ti + 1) {
    for (int tj = 0; tj < 2; tj = tj + 1) {
      tile acc = tmul(tload(A, ti * 8 + 0, 4), tload(B, tj * 2 + 0, 4));
      tile acc2 = tadd(acc, tmul(tload(A, ti * 8 + 2, 4), tload(B, tj * 2 + 8, 4)));
      tstore(C, ti * 8 + tj * 2, 4, acc2);
    }
  }
}
|}
  in
  let a = List.init 16 (fun i -> float_of_int (i + 1)) in
  let b = List.init 16 (fun i -> float_of_int ((i mod 4) + 1)) in
  let _, mem, p = run ~inits:[ ("A", farr a); ("B", farr b) ] src in
  (* Reference 4x4 matmul. *)
  let aa = Array.of_list a and ba = Array.of_list b in
  let expected =
    List.init 16 (fun idx ->
        let i = idx / 4 and j = idx mod 4 in
        let acc = ref 0.0 in
        for k = 0 to 3 do
          acc := !acc +. (aa.((i * 4) + k) *. ba.((k * 4) + j))
        done;
        !acc)
  in
  check_floats "tiled 4x4 matmul" expected (floats mem p "C")

let test_int_array_and_spmv_like () =
  let src =
    {|
global int ROWPTR[5];
global int COLS[8];
global float VALS[8];
global float X[4];
global float Y[4];
func void main() {
  for (int r = 0; r < 4; r = r + 1) {
    float acc = 0.0;
    for (int k = ROWPTR[r]; k < ROWPTR[r + 1]; k = k + 1) {
      acc = acc + VALS[k] * X[COLS[k]];
    }
    Y[r] = acc;
  }
}
|}
  in
  let inits =
    [ ("ROWPTR", iarr [ 0; 2; 4; 6; 8 ]);
      ("COLS", iarr [ 0; 1; 1; 2; 2; 3; 0; 3 ]);
      ("VALS", farr [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. ]);
      ("X", farr [ 1.; 2.; 3.; 4. ]) ]
  in
  let _, mem, p = run ~inits src in
  check_floats "spmv"
    [ (1. *. 1.) +. (2. *. 2.);
      (3. *. 2.) +. (4. *. 3.);
      (5. *. 3.) +. (6. *. 4.);
      (7. *. 1.) +. (8. *. 4.) ]
    (floats mem p "Y")

(* Error reporting *)

let expect_type_error src =
  match Muir_frontend.Frontend.compile src with
  | exception Muir_frontend.Typecheck.Error _ -> ()
  | _ -> Alcotest.fail "expected a type error"

let test_type_errors () =
  expect_type_error "func void main() { x = 1; }";
  expect_type_error "func void main() { int x = 1.5; }";
  expect_type_error "func void main() { float f = 1.0; if (f) { } }";
  expect_type_error
    "func void main() { int s = 0; parallel_for (int i = 0; i < 4; i = i + 1) { s = s + i; } }";
  expect_type_error
    "func void main() { for (int i = 0; i < 4; i = i + 1) { return; } }";
  expect_type_error "func void main() { unknown_fn(3); }";
  expect_type_error "global float A[4]; func void main() { A[1.5] = 1.0; }"

(* A duplicate global is reported at the second definition's keyword
   (test_cli pins a duplicate function through every command). *)
let test_duplicate_global_position () =
  match
    Muir_frontend.Frontend.compile
      "global int A[4];\nfunc void main() { }\n  global float A[2];\n"
  with
  | exception Muir_frontend.Typecheck.Error (m, p) ->
    Alcotest.(check (pair string (pair int int))) "message and position"
      ("duplicate global A", (3, 3))
      (m, (p.line, p.col))
  | _ -> Alcotest.fail "expected a type error"

let test_parse_errors () =
  let expect_parse_error src =
    match Muir_frontend.Frontend.compile src with
    | exception Muir_frontend.Parser.Error _ -> ()
    | _ -> Alcotest.fail "expected a parse error"
  in
  expect_parse_error "func void main( { }";
  expect_parse_error "func void main() { int x = ; }";
  expect_parse_error "global float A[]; func void main() { }"

let test_lexer_positions () =
  let toks = Muir_frontend.Lexer.tokenize "int x\n  = 42;" in
  match toks with
  | (KW "int", p1) :: (IDENT "x", _) :: (PUNCT "=", p2) :: (INT 42L, _) :: _
    ->
    Alcotest.(check int) "line 1" 1 p1.line;
    Alcotest.(check int) "line 2" 2 p2.line;
    Alcotest.(check int) "col 3" 3 p2.col;
    (* A number literal that does not parse, or does not fit an int64,
       is a lex error at the literal that names it. *)
    List.iter
      (fun lit ->
        match Muir_frontend.Lexer.tokenize ("x =\n  " ^ lit ^ ";") with
        | exception Muir_frontend.Lexer.Error (m, p) ->
          Alcotest.(check string) (lit ^ ": message")
            (Fmt.str "malformed number literal %S" lit)
            m;
          Alcotest.(check (pair int int)) (lit ^ ": position") (2, 3)
            (p.line, p.col)
        | _ -> Alcotest.failf "%s lexed" lit)
      [ "1e"; "1.5e-"; "9223372036854775808" ]
  | _ -> Alcotest.fail "unexpected token stream"

(* The token stream, pinned token by token: kind, text and line:col.
   The main source holds every keyword and every punctuation,
   identifiers that extend a keyword, the three number forms, a block
   comment spanning lines and a line comment that ends the input
   without a newline.  The short sources hold the largest int64 and
   floats at the edge of range, end on a two-character operator, end
   on a lone '<', and run operators together. *)
let show_token (t, (p : Muir_frontend.Ast.pos)) =
  let module L = Muir_frontend.Lexer in
  let kind, text =
    match t with
    | L.INT i -> ("int", Int64.to_string i)
    | L.FLOAT f -> ("float", Printf.sprintf "%g" f)
    | L.IDENT s -> ("ident", s)
    | L.KW s -> ("kw", s)
    | L.PUNCT s -> ("punct", s)
    | L.EOF -> ("eof", "")
  in
  Printf.sprintf "%s %s %d:%d" kind text p.line p.col

let lexer_cases =
  [ ( "global func int float bool tile void true false\n\
       if else for parallel_for while spawn sync return\n\
       + - * / % & | ^ < > = ! ( ) { } [ ] ; , ? :\n\
       == != <= >= && || << >>\n\
       format iffy returned parallel_fork sync2 _x\n\
       1 1.5 2e3 /* a comment\n\
       spanning lines */ x\n\
       // ends the input without a newline",
      [ "kw global 1:1"; "kw func 1:8"; "kw int 1:13"; "kw float 1:17";
        "kw bool 1:23"; "kw tile 1:28"; "kw void 1:33"; "kw true 1:38";
        "kw false 1:43"; "kw if 2:1"; "kw else 2:4"; "kw for 2:9";
        "kw parallel_for 2:13"; "kw while 2:26"; "kw spawn 2:32";
        "kw sync 2:38"; "kw return 2:43"; "punct + 3:1"; "punct - 3:3";
        "punct * 3:5"; "punct / 3:7"; "punct % 3:9"; "punct & 3:11";
        "punct | 3:13"; "punct ^ 3:15"; "punct < 3:17"; "punct > 3:19";
        "punct = 3:21"; "punct ! 3:23"; "punct ( 3:25"; "punct ) 3:27";
        "punct { 3:29"; "punct } 3:31"; "punct [ 3:33"; "punct ] 3:35";
        "punct ; 3:37"; "punct , 3:39"; "punct ? 3:41"; "punct : 3:43";
        "punct == 4:1"; "punct != 4:4"; "punct <= 4:7"; "punct >= 4:10";
        "punct && 4:13"; "punct || 4:16"; "punct << 4:19";
        "punct >> 4:22"; "ident format 5:1"; "ident iffy 5:8";
        "ident returned 5:13"; "ident parallel_fork 5:22";
        "ident sync2 5:36"; "ident _x 5:42"; "int 1 6:1"; "float 1.5 6:3";
        "float 2000 6:7"; "ident x 7:19"; "eof  8:36" ] );
    ( "9223372036854775807 2e3 1e400",
      [ "int 9223372036854775807 1:1"; "float 2000 1:21"; "float inf 1:25";
        "eof  1:30" ] );
    ("a >=", [ "ident a 1:1"; "punct >= 1:3"; "eof  1:5" ]);
    ("b <", [ "ident b 1:1"; "punct < 1:3"; "eof  1:4" ]);
    ( "a<=b<<=c!=!d",
      [ "ident a 1:1"; "punct <= 1:2"; "ident b 1:4"; "punct << 1:5";
        "punct = 1:7"; "ident c 1:8"; "punct != 1:9"; "punct ! 1:11";
        "ident d 1:12"; "eof  1:13" ] ) ]

let test_lexer_token_stream () =
  List.iter
    (fun (src, want) ->
      Alcotest.(check (list string))
        (Fmt.str "tokens of %S" src)
        want
        (List.map show_token (Muir_frontend.Lexer.tokenize src)))
    lexer_cases

(* Structural checks on the lowered IR *)

let test_loop_metadata () =
  let p = Muir_frontend.Frontend.compile saxpy_src in
  let f = Program.find_func p "main" in
  match f.loops with
  | [ lp ] ->
    Alcotest.(check bool) "not parallel" false lp.parallel;
    Alcotest.(check int) "depth 1" 1 lp.depth;
    Alcotest.(check bool) "header in body" true (List.mem lp.header lp.body);
    Alcotest.(check bool) "latch in body" true (List.mem lp.latch lp.body);
    Alcotest.(check bool) "exit not in body" false (List.mem lp.exit lp.body)
  | ls -> Alcotest.failf "expected 1 loop, got %d" (List.length ls)

let test_nested_loop_depths () =
  let src =
    {|
global float A[4];
func void main() {
  for (int i = 0; i < 2; i = i + 1) {
    for (int j = 0; j < 2; j = j + 1) {
      A[i * 2 + j] = 1.0;
    }
  }
}
|}
  in
  let p = Muir_frontend.Frontend.compile src in
  let f = Program.find_func p "main" in
  let depths =
    List.sort compare (List.map (fun (l : Func.loop_info) -> l.depth) f.loops)
  in
  Alcotest.(check (list int)) "two nested loops" [ 1; 2 ] depths;
  (* Inner loop blocks are contained in the outer loop body. *)
  let outer = List.find (fun (l : Func.loop_info) -> l.depth = 1) f.loops in
  let inner = List.find (fun (l : Func.loop_info) -> l.depth = 2) f.loops in
  Alcotest.(check bool) "inner inside outer" true
    (List.for_all (fun b -> List.mem b outer.body) inner.body)

(* Property: compiled straight-line arithmetic agrees with OCaml. *)

let prop_arith_agrees =
  QCheck.Test.make ~count:100 ~name:"compiled int arithmetic matches OCaml"
    QCheck.(triple (int_range (-1000) 1000) (int_range (-1000) 1000)
              (int_range 1 100))
    (fun (a, b, c) ->
      let src =
        Fmt.str
          "func int main() { int a = %d; int b = %d; int c = %d; return (a \
           + b) * c - a / c + (a %% c); }"
          a b c
      in
      let v, _, _ = Interp.run (Muir_frontend.Frontend.compile src) in
      let expected = (((a + b) * c) - (a / c)) + (a mod c) in
      Types.value_close v (vint expected))

let prop_parallel_matches_serial =
  QCheck.Test.make ~count:30 ~name:"parallel_for equals serial for"
    QCheck.(int_range 1 32)
    (fun n ->
      let mk kw =
        Fmt.str
          {|
global float X[%d];
global float O[%d];
func void main() {
  %s (int i = 0; i < %d; i = i + 1) { O[i] = X[i] * 3.0 + 1.0; }
}
|}
          n n kw n
      in
      let x = Array.init n (fun i -> VFloat (float_of_int i *. 0.5)) in
      let run src =
        let p = Muir_frontend.Frontend.compile src in
        let p = Program.with_init p [ ("X", x) ] in
        let _, mem, _ = Interp.run p in
        Memory.dump_global mem p "O"
      in
      let serial = run (mk "for") and par = run (mk "parallel_for") in
      Array.for_all2 (fun a b -> Types.value_close a b) serial par)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_arith_agrees; prop_parallel_matches_serial ]

let () =
  Alcotest.run "frontend"
    [ ( "programs",
        [ Alcotest.test_case "saxpy" `Quick test_saxpy;
          Alcotest.test_case "parallel saxpy" `Quick test_parallel_saxpy;
          Alcotest.test_case "outlined body's name taken" `Quick
            test_outlined_name_taken;
          Alcotest.test_case "gemm" `Quick test_gemm;
          Alcotest.test_case "if/else phi" `Quick test_condition_phi;
          Alcotest.test_case "fib via spawn" `Quick test_fib_spawn;
          Alcotest.test_case "while" `Quick test_while_loop;
          Alcotest.test_case "ternary/minmax/cast" `Quick
            test_ternary_minmax_cast;
          Alcotest.test_case "tile intrinsics" `Quick test_tile_ops;
          Alcotest.test_case "spmv-like indirection" `Quick
            test_int_array_and_spmv_like ] );
      ( "errors",
        [ Alcotest.test_case "type errors" `Quick test_type_errors;
          Alcotest.test_case "duplicate global" `Quick
            test_duplicate_global_position;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
          Alcotest.test_case "lexer token stream" `Quick
            test_lexer_token_stream ] );
      ( "structure",
        [ Alcotest.test_case "loop metadata" `Quick test_loop_metadata;
          Alcotest.test_case "nested loop depths" `Quick
            test_nested_loop_depths ] );
      ("properties", qcheck_cases) ]
