(* Unit tests for the compiler-IR substrate: builder, verifier,
   dominators, loops, interpreter, and the cleanup transforms. *)

open Muir_ir
open Muir_ir.Types
open Muir_ir.Instr

let value_testable =
  Alcotest.testable Types.pp_value (fun a b -> Types.value_close a b)

(* Build: func sum_to(n) { s=0; for(i=0;i<n;i++) s+=i; return s } *)
let build_sum_to () =
  let b = Builder.create ~name:"sum_to" ~params:[ ("n", i64) ] ~ret:i64 in
  let entry = Builder.new_block b in
  let header = Builder.new_block b in
  let body = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.position_at b entry;
  Builder.set_term b (Br header);
  (* header: i = phi [entry:0, body:i'], s = phi [entry:0, body:s'] *)
  let i_phi = Builder.add_phi b header ~ty:i64 [] in
  let s_phi = Builder.add_phi b header ~ty:i64 [] in
  Builder.position_at b header;
  let cond = Builder.add b ~ty:TBool (Icmp (Slt, i_phi, Reg 0)) in
  Builder.set_term b (CondBr (cond, body, exit));
  Builder.position_at b body;
  let s' = Builder.add b ~ty:i64 (Bin (Add, s_phi, i_phi)) in
  let i' = Builder.add b ~ty:i64 (Bin (Add, i_phi, CInt 1L)) in
  Builder.set_term b (Br header);
  let reg = function Reg r -> r | _ -> assert false in
  Builder.set_phi_incoming b header (reg i_phi)
    [ (entry, CInt 0L); (body, i') ];
  Builder.set_phi_incoming b header (reg s_phi)
    [ (entry, CInt 0L); (body, s') ];
  Builder.position_at b exit;
  Builder.set_term b (Ret (Some s_phi));
  Builder.add_loop b
    { preheader = entry; header; latch = body; exit;
      body = [ header; body ]; depth = 1; parallel = false };
  Builder.finish b

let sum_prog () =
  { Program.globals = []; funcs = [ build_sum_to () ] }

let test_interp_sum () =
  let v, _, stats = Interp.run ~entry:"sum_to" ~args:[ vint 10 ] (sum_prog ()) in
  Alcotest.check value_testable "sum 0..9" (vint 45) v;
  Alcotest.(check bool) "executed instructions" true (stats.dyn_instrs > 20)

let test_verify_sum () =
  Alcotest.(check int) "no verification errors" 0
    (List.length (Verify.verify (sum_prog ())))

let test_verify_catches_bad_use () =
  let f = build_sum_to () in
  (* Introduce a use of an undefined register. *)
  let blk = Func.entry f in
  blk.instrs <-
    [ { id = 99; ty = i64; kind = Bin (Add, Reg 42, CInt 1L) } ];
  let errs = Verify.verify_func None f in
  Alcotest.(check bool) "detects undefined use" true (List.length errs > 0)

let test_dominators () =
  let f = build_sum_to () in
  let d = Dom.compute f in
  (* entry=0 header=1 body=2 exit=3 *)
  Alcotest.(check bool) "entry dom header" true (Dom.dominates d 0 1);
  Alcotest.(check bool) "header dom body" true (Dom.dominates d 1 2);
  Alcotest.(check bool) "header dom exit" true (Dom.dominates d 1 3);
  Alcotest.(check bool) "body !dom exit" false (Dom.dominates d 2 3);
  Alcotest.(check (option int)) "idom of body" (Some 1) (Dom.idom d 2)

let test_natural_loops () =
  let f = build_sum_to () in
  match Loops.analyze f with
  | [ lp ] ->
    Alcotest.(check int) "header" 1 lp.header;
    Alcotest.(check (list int)) "latches" [ 2 ] lp.latches;
    Alcotest.(check (list int)) "blocks" [ 1; 2 ]
      (List.sort compare lp.blocks)
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls)

let test_const_fold () =
  let b = Builder.create ~name:"cf" ~params:[] ~ret:i64 in
  let e = Builder.new_block b in
  Builder.position_at b e;
  let x = Builder.add b ~ty:i64 (Bin (Add, CInt 2L, CInt 3L)) in
  let y = Builder.add b ~ty:i64 (Bin (Mul, x, CInt 4L)) in
  Builder.set_term b (Ret (Some y));
  let f = Builder.finish b in
  let n = Transform.constant_fold_func f in
  Alcotest.(check int) "folded both" 2 n;
  let p = { Program.globals = []; funcs = [ f ] } in
  let v, _, _ = Interp.run ~entry:"cf" p in
  Alcotest.check value_testable "result preserved" (vint 20) v

let test_dce () =
  let b = Builder.create ~name:"dce" ~params:[] ~ret:i64 in
  let e = Builder.new_block b in
  Builder.position_at b e;
  let _dead = Builder.add b ~ty:i64 (Bin (Add, CInt 1L, CInt 1L)) in
  let live = Builder.add b ~ty:i64 (Bin (Add, CInt 2L, CInt 2L)) in
  Builder.set_term b (Ret (Some live));
  let f = Builder.finish b in
  let n = Transform.dead_code_elim_func f in
  Alcotest.(check int) "one dead instr removed" 1 n;
  let p = { Program.globals = []; funcs = [ f ] } in
  let v, _, _ = Interp.run ~entry:"dce" p in
  Alcotest.check value_testable "result preserved" (vint 4) v

let test_memory_layout () =
  let globals =
    Program.layout
      [ ("a", 16, TFloat, None); ("b", 8, i32, None); ("c", 4, TFloat, None) ]
  in
  let p = { Program.globals; funcs = [] } in
  let a = Program.find_global p "a"
  and b = Program.find_global p "b"
  and c = Program.find_global p "c" in
  Alcotest.(check int) "a base" 0 a.gbase;
  Alcotest.(check int) "b base (line aligned + pad)" 24 b.gbase;
  Alcotest.(check int) "c base" 40 c.gbase;
  Alcotest.(check int) "distinct spaces" 3
    (List.length (List.sort_uniq compare [ a.gspace; b.gspace; c.gspace ]));
  Alcotest.(check int) "footprint" 44 (Program.memory_words p)

let test_memory_tiles () =
  let globals = Program.layout [ ("m", 16, TFloat, None) ] in
  let p = { Program.globals; funcs = [] } in
  let mem = Memory.create p in
  let s = { rows = 2; cols = 2 } in
  Memory.store_tile mem ~addr:0 ~row_stride:4 s [| 1.; 2.; 3.; 4. |];
  let t = Memory.load_tile mem ~addr:0 ~row_stride:4 s in
  Alcotest.check value_testable "tile roundtrip" (VTensor [| 1.; 2.; 3.; 4. |])
    (VTensor t);
  (* Row stride respected: row 1 starts at word 4. *)
  Alcotest.check value_testable "strided cell" (VFloat 3.0) (Memory.load mem 4)

let test_eval_tensor_mul () =
  let s = { rows = 2; cols = 2 } in
  let a = [| 1.; 2.; 3.; 4. |] and b = [| 5.; 6.; 7.; 8. |] in
  let c = Eval.tensor_mul s a b in
  Alcotest.check value_testable "2x2 matmul" (VTensor [| 19.; 22.; 43.; 50. |])
    (VTensor c)

(* --- the operand rewrite --------------------------------------------- *)

(* One instruction of every [Instr.kind] constructor, between them using
   every operand constructor. *)
let every_kind : kind list =
  let s = { rows = 2; cols = 3 } in
  [ Bin (Sub, Reg 1, CInt 2L); Fbin (Fdiv, Reg 1, CFloat 0.5);
    Icmp (Sle, CInt 3L, Reg 2); Fcmp (Folt, Reg 1, Reg 2);
    Funary (Fsqrt, Reg 1); Cast (Trunc 8, Reg 1);
    Select (CBool true, Reg 2, Reg 3); Phi [ (4, Reg 1); (7, CInt 0L) ];
    Gep { base = GlobalAddr "a"; index = Reg 1; scale = 3 };
    Load { addr = Reg 1 }; Store { addr = GlobalAddr "b"; value = Reg 2 };
    Call { callee = "f"; args = [ Reg 1; Reg 2 ] };
    Spawn { callee = "g"; args = [ Reg 1; CInt 5L ] }; Sync;
    Tload { addr = Reg 1; row_stride = CInt 4L; shape = s };
    Tstore { addr = Reg 1; row_stride = Reg 2; value = Reg 3; shape = s };
    Tbin (Tmul, Reg 1, Reg 2); Tunary (Trelu, Reg 1) ]

(* A full match, so a new constructor cannot be left out of
   [every_kind] unnoticed. *)
let kind_tag : kind -> int = function
  | Bin _ -> 0 | Fbin _ -> 1 | Icmp _ -> 2 | Fcmp _ -> 3 | Funary _ -> 4
  | Cast _ -> 5 | Select _ -> 6 | Phi _ -> 7 | Gep _ -> 8 | Load _ -> 9
  | Store _ -> 10 | Call _ -> 11 | Spawn _ -> 12 | Sync -> 13
  | Tload _ -> 14 | Tstore _ -> 15 | Tbin _ -> 16 | Tunary _ -> 17

let every_term = [ Br 3; CondBr (Reg 1, 4, 5); Ret None; Ret (Some (CInt 2L)) ]

(* A rewrite that changes every operand, and its inverse. *)
let bump = function
  | Reg r -> Reg (r + 100)
  | CInt k -> CInt (Int64.add k 100L)
  | CFloat x -> CFloat (x +. 100.)
  | CBool b -> CBool (not b)
  | GlobalAddr g -> GlobalAddr ("bumped." ^ g)

let unbump = function
  | Reg r -> Reg (r - 100)
  | CInt k -> CInt (Int64.sub k 100L)
  | CFloat x -> CFloat (x -. 100.)
  | CBool b -> CBool (not b)
  | GlobalAddr g -> GlobalAddr (String.sub g 7 (String.length g - 7))

let test_map_operands () =
  Alcotest.(check (list int)) "one instruction of every kind"
    (List.init 18 Fun.id) (List.map kind_tag every_kind);
  List.iter
    (fun kind ->
      let i = { id = 9; ty = i64; kind } in
      let name = Fmt.str "%a" pp i in
      let j = map_operands bump i in
      Alcotest.(check bool) (name ^ ": every operand rewritten in place") true
        (operands j = List.map bump (operands i));
      (* undoing the rewrite restores the instruction: nothing but the
         operands changed *)
      Alcotest.(check bool) (name ^ ": nothing else changed") true
        (map_operands unbump j = i))
    every_kind;
  List.iter
    (fun t ->
      let name = Fmt.str "%a" pp_terminator t in
      let u = map_term bump t in
      Alcotest.(check bool) (name ^ ": every operand rewritten") true
        (term_operands u = List.map bump (term_operands t));
      Alcotest.(check bool) (name ^ ": targets kept") true
        (map_term unbump u = t))
    every_term

(* QCheck properties on the evaluation core. *)
let prop_ibin_add_assoc =
  QCheck.Test.make ~count:200 ~name:"eval add associative"
    QCheck.(triple int64 int64 int64)
    (fun (a, b, c) ->
      Int64.equal
        (Eval.ibin Add (Eval.ibin Add a b) c)
        (Eval.ibin Add a (Eval.ibin Add b c)))

let prop_icmp_total_order =
  QCheck.Test.make ~count:200 ~name:"icmp slt/sge complementary"
    QCheck.(pair int64 int64)
    (fun (a, b) -> Eval.icmp Slt a b = not (Eval.icmp Sge a b))

let prop_pure_poison =
  QCheck.Test.make ~count:100 ~name:"poison operand poisons pure ops"
    QCheck.int64
    (fun a ->
      Types.is_poison
        (Eval.pure (Bin (Add, Reg 0, Reg 1)) [ VInt a; VPoison ]))

let prop_tensor_relu_nonneg =
  QCheck.Test.make ~count:200 ~name:"relu output non-negative"
    QCheck.(array_of_size (QCheck.Gen.return 4) (float_range (-100.) 100.))
    (fun a -> Array.for_all (fun x -> x >= 0.0) (Eval.tensor_relu a))

let prop_interp_sum_closed_form =
  QCheck.Test.make ~count:50 ~name:"interp sum_to matches closed form"
    QCheck.(int_range 0 200)
    (fun n ->
      let v, _, _ =
        Interp.run ~entry:"sum_to" ~args:[ vint n ] (sum_prog ())
      in
      Types.value_close v (vint (n * (n - 1) / 2)))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_ibin_add_assoc; prop_icmp_total_order; prop_pure_poison;
      prop_tensor_relu_nonneg; prop_interp_sum_closed_form ]

let () =
  Alcotest.run "ir"
    [ ( "interp",
        [ Alcotest.test_case "sum loop" `Quick test_interp_sum ] );
      ( "verify",
        [ Alcotest.test_case "well-formed" `Quick test_verify_sum;
          Alcotest.test_case "catches bad use" `Quick
            test_verify_catches_bad_use ] );
      ( "analysis",
        [ Alcotest.test_case "dominators" `Quick test_dominators;
          Alcotest.test_case "natural loops" `Quick test_natural_loops ] );
      ( "transform",
        [ Alcotest.test_case "constant folding" `Quick test_const_fold;
          Alcotest.test_case "dead code elim" `Quick test_dce;
          Alcotest.test_case "operand rewrite" `Quick test_map_operands ] );
      ( "memory",
        [ Alcotest.test_case "layout" `Quick test_memory_layout;
          Alcotest.test_case "tiles" `Quick test_memory_tiles;
          Alcotest.test_case "tensor mul" `Quick test_eval_tensor_mul ] );
      ("properties", qcheck_cases) ]
