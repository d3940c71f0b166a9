(** Hand-written lexer for the mini-language. *)

type token =
  | INT of int64
  | FLOAT of float
  | IDENT of string
  | KW of string       (** keyword *)
  | PUNCT of string    (** operator / punctuation *)
  | EOF

let pp_token ppf = function
  | INT i -> Fmt.pf ppf "int %Ld" i
  | FLOAT f -> Fmt.pf ppf "float %g" f
  | IDENT s -> Fmt.pf ppf "ident %s" s
  | KW s -> Fmt.pf ppf "keyword %s" s
  | PUNCT s -> Fmt.pf ppf "'%s'" s
  | EOF -> Fmt.string ppf "<eof>"

exception Error of string * Ast.pos

(* Keywords and two-character operators are matched on the text, so
   an identifier or an operator costs no list walk and no polymorphic
   compare. *)
let is_keyword = function
  | "global" | "func" | "int" | "float" | "bool" | "tile" | "void" | "true"
  | "false" | "if" | "else" | "for" | "parallel_for" | "while" | "spawn"
  | "sync" | "return" -> true
  | _ -> false

let is_two_char_punct c d =
  match (c, d) with
  | ('=' | '!' | '<' | '>'), '=' | '&', '&' | '|', '|' | '<', '<' | '>', '>'
    ->
    true
  | _ -> false

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of beginning of current line *)
}

let create src = { src; pos = 0; line = 1; bol = 0 }

let position (lx : t) : Ast.pos = { line = lx.line; col = lx.pos - lx.bol + 1 }

(* Is the byte [k] past the current one [c]?  False past the end of
   the input.  The scanners step over a byte with [advance], or with
   [lx.pos <- lx.pos + 1] where it cannot be a newline. *)
let at (lx : t) k c =
  lx.pos + k < String.length lx.src && lx.src.[lx.pos + k] = c

let at_end (lx : t) = lx.pos >= String.length lx.src

let advance (lx : t) =
  if at lx 0 '\n' then begin
    lx.line <- lx.line + 1;
    lx.bol <- lx.pos + 1
  end;
  lx.pos <- lx.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

(* Step over the bytes [p] holds for; none of them is a newline. *)
let skip_while (lx : t) p =
  while (not (at_end lx)) && p lx.src.[lx.pos] do
    lx.pos <- lx.pos + 1
  done

let rec skip_ws (lx : t) =
  if not (at_end lx) then
    match lx.src.[lx.pos] with
    | ' ' | '\t' | '\r' | '\n' ->
      advance lx;
      skip_ws lx
    | '/' when at lx 1 '/' ->
      skip_while lx (fun c -> c <> '\n');
      skip_ws lx
    | '/' when at lx 1 '*' ->
      advance lx; advance lx;
      let rec close () =
        if at_end lx then raise (Error ("unterminated comment", position lx))
        else if at lx 0 '*' && at lx 1 '/' then (advance lx; advance lx)
        else (advance lx; close ())
      in
      close ();
      skip_ws lx
    | _ -> ()

(** A number literal starting at [pos].  A literal that does not
    parse, or whose value does not fit an [int64], is a lex error at
    [pos] naming the literal. *)
let lex_number (lx : t) (pos : Ast.pos) : token =
  let start = lx.pos in
  skip_while lx is_digit;
  let is_float =
    at lx 0 '.'
    && lx.pos + 1 < String.length lx.src
    && is_digit lx.src.[lx.pos + 1]
  in
  if is_float then begin
    lx.pos <- lx.pos + 1;
    skip_while lx is_digit
  end;
  let is_float =
    if at lx 0 'e' || at lx 0 'E' then begin
      lx.pos <- lx.pos + 1;
      if at lx 0 '+' || at lx 0 '-' then lx.pos <- lx.pos + 1;
      skip_while lx is_digit;
      true
    end
    else is_float
  in
  let text = String.sub lx.src start (lx.pos - start) in
  let tok =
    if is_float then Option.map (fun f -> FLOAT f) (float_of_string_opt text)
    else Option.map (fun i -> INT i) (Int64.of_string_opt text)
  in
  match tok with
  | Some t -> t
  | None -> raise (Error (Fmt.str "malformed number literal %S" text, pos))

(** Next token together with its source position. *)
let next (lx : t) : token * Ast.pos =
  skip_ws lx;
  let pos = position lx in
  if at_end lx then (EOF, pos)
  else
    let c = lx.src.[lx.pos] in
    if is_digit c then (lex_number lx pos, pos)
    else if is_ident_start c then begin
      let start = lx.pos in
      skip_while lx is_ident_char;
      let text = String.sub lx.src start (lx.pos - start) in
      ((if is_keyword text then KW text else IDENT text), pos)
    end
    else if
      lx.pos + 1 < String.length lx.src
      && is_two_char_punct c lx.src.[lx.pos + 1]
    then begin
      lx.pos <- lx.pos + 2;
      (PUNCT (String.sub lx.src (lx.pos - 2) 2), pos)
    end
    else
      match c with
      | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '<' | '>' | '='
      | '!' | '(' | ')' | '{' | '}' | '[' | ']' | ';' | ',' | '?' | ':' ->
        lx.pos <- lx.pos + 1;
        (PUNCT (String.make 1 c), pos)
      | _ ->
        raise (Error (Fmt.str "unexpected character %C" c, pos))

(** Tokenize the whole input (for tests). *)
let tokenize (src : string) : (token * Ast.pos) list =
  let lx = create src in
  let rec go acc =
    let t, p = next lx in
    if t = EOF then List.rev ((t, p) :: acc) else go ((t, p) :: acc)
  in
  go []
