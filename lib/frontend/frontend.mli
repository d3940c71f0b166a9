(** Front-end entry point: mini-language source text to verified IR. *)

val compile : string -> Muir_ir.Program.t
(** Compile source to a verified, cleanup-optimized IR program.
    @raise Lexer.Error on malformed tokens
    @raise Parser.Error on syntax errors
    @raise Typecheck.Error on type errors *)

val describe_error : exn -> string option
(** Human-readable rendering of any front-end exception; [None] for
    exceptions the front-end does not own. *)
