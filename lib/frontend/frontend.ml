(** Top-level front-end entry point: source text to verified IR. *)

(** Compile mini-language source to a verified, cleanup-optimized IR
    program.

    @raise Lexer.Error on malformed tokens
    @raise Parser.Error on syntax errors
    @raise Typecheck.Error on type errors
    @raise Invalid_argument if lowering produced ill-formed IR (a bug) *)
let compile (src : string) : Muir_ir.Program.t =
  let ast = Parser.parse src in
  let ast = Typecheck.check ast in
  let p = Lower.lower ast in
  Muir_ir.Verify.check_exn p;
  Muir_ir.Transform.optimize p

(** Render front-end exceptions as a human-readable message. *)
let describe_error = function
  | Lexer.Error (m, pos) -> Some (Fmt.str "lex error at %a: %s" Ast.pp_pos pos m)
  | Parser.Error (m, pos) ->
    Some (Fmt.str "parse error at %a: %s" Ast.pp_pos pos m)
  | Typecheck.Error (m, pos) ->
    Some (Fmt.str "type error at %a: %s" Ast.pp_pos pos m)
  | Lower.Error (m, pos) ->
    Some (Fmt.str "lowering error at %a: %s" Ast.pp_pos pos m)
  | _ -> None
