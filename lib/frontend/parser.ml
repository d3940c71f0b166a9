(** Recursive-descent parser for the mini-language. *)

open Ast

exception Error of string * pos

type t = {
  lx : Lexer.t;
  mutable tok : Lexer.token;
  mutable pos : pos;
}

let advance (p : t) =
  let tok, pos = Lexer.next p.lx in
  p.tok <- tok;
  p.pos <- pos

let create src =
  let lx = Lexer.create src in
  let tok, pos = Lexer.next lx in
  { lx; tok; pos }

let fail p fmt =
  Fmt.kstr
    (fun m -> raise (Error (Fmt.str "%s (found %a)" m Lexer.pp_token p.tok, p.pos)))
    fmt

let eat_punct (p : t) s =
  match p.tok with
  | PUNCT x when x = s -> advance p
  | _ -> fail p "expected '%s'" s

let eat_kw (p : t) s =
  match p.tok with
  | KW x when x = s -> advance p
  | _ -> fail p "expected keyword '%s'" s

let accept_punct (p : t) s =
  match p.tok with
  | PUNCT x when x = s ->
    advance p;
    true
  | _ -> false

let ident (p : t) =
  match p.tok with
  | IDENT x ->
    advance p;
    x
  | _ -> fail p "expected identifier"

let parse_ty (p : t) : ty =
  match p.tok with
  | KW "int" -> advance p; Tint
  | KW "float" -> advance p; Tfloat
  | KW "bool" -> advance p; Tbool
  | KW "tile" -> advance p; Ttile
  | KW "void" -> advance p; Tvoid
  | _ -> fail p "expected a type"

let is_ty (p : t) =
  match p.tok with
  | KW ("int" | "float" | "bool" | "tile" | "void") -> true
  | _ -> false

(* Expressions, by descending precedence:
   ternary < || < && < | < ^ < & < ==/!= < relational < shifts < +- < * / % < unary *)

let rec parse_expr (p : t) : expr = parse_ternary p

and parse_ternary p =
  let epos = p.pos in
  let c = parse_lor p in
  if accept_punct p "?" then begin
    let a = parse_expr p in
    eat_punct p ":";
    let b = parse_expr p in
    { e = Eternary (c, a, b); epos }
  end
  else c

and binlevel p next ops =
  let epos = p.pos in
  let rec go lhs =
    match p.tok with
    | PUNCT s -> (
      match List.find_opt (fun (o, _) -> String.equal o s) ops with
      | Some (_, op) ->
        advance p;
        let rhs = next p in
        go { e = Ebin (op, lhs, rhs); epos }
      | None -> lhs)
    | _ -> lhs
  in
  go (next p)

and parse_lor p = binlevel p parse_land [ ("||", Blor) ]
and parse_land p = binlevel p parse_bor [ ("&&", Bland) ]
and parse_bor p = binlevel p parse_bxor [ ("|", Bor) ]
and parse_bxor p = binlevel p parse_band [ ("^", Bxor) ]
and parse_band p = binlevel p parse_eq [ ("&", Band) ]
and parse_eq p = binlevel p parse_rel [ ("==", Beq); ("!=", Bne) ]

and parse_rel p =
  binlevel p parse_shift
    [ ("<", Blt); ("<=", Ble); (">", Bgt); (">=", Bge) ]

and parse_shift p = binlevel p parse_add [ ("<<", Bshl); (">>", Bshr) ]
and parse_add p = binlevel p parse_mul [ ("+", Badd); ("-", Bsub) ]

and parse_mul p =
  binlevel p parse_unary [ ("*", Bmul); ("/", Bdiv); ("%", Bmod) ]

and parse_unary p =
  let epos = p.pos in
  match p.tok with
  | PUNCT "-" ->
    advance p;
    { e = Eun (Uneg, parse_unary p); epos }
  | PUNCT "!" ->
    advance p;
    { e = Eun (Unot, parse_unary p); epos }
  | _ -> parse_primary p

and parse_args p =
  eat_punct p "(";
  if accept_punct p ")" then []
  else begin
    let rec go acc =
      let a = parse_expr p in
      if accept_punct p "," then go (a :: acc)
      else begin
        eat_punct p ")";
        List.rev (a :: acc)
      end
    in
    go []
  end

and parse_primary p =
  let epos = p.pos in
  match p.tok with
  | INT i -> advance p; { e = Eint i; epos }
  | FLOAT f -> advance p; { e = Efloat f; epos }
  | KW "true" -> advance p; { e = Ebool true; epos }
  | KW "false" -> advance p; { e = Ebool false; epos }
  | KW "spawn" ->
    advance p;
    let f = ident p in
    { e = Espawn (f, parse_args p); epos }
  | KW ("int" | "float") ->
    (* cast syntax: int(e) / float(e) *)
    let ty = parse_ty p in
    eat_punct p "(";
    let e = parse_expr p in
    eat_punct p ")";
    { e = Ecast (ty, e); epos }
  | PUNCT "(" ->
    advance p;
    let e = parse_expr p in
    eat_punct p ")";
    e
  | IDENT name ->
    advance p;
    (match p.tok with
    | PUNCT "(" -> { e = Ecall (name, parse_args p); epos }
    | PUNCT "[" ->
      advance p;
      let i = parse_expr p in
      eat_punct p "]";
      { e = Eindex (name, i); epos }
    | _ -> { e = Evar name; epos })
  | _ -> fail p "expected an expression"

(* Statements *)

let rec parse_stmt (p : t) : stmt =
  let spos = p.pos in
  match p.tok with
  | KW ("int" | "float" | "bool" | "tile") ->
    let ty = parse_ty p in
    let name = ident p in
    eat_punct p "=";
    let e = parse_expr p in
    eat_punct p ";";
    { s = Sdecl (ty, name, e); spos }
  | KW "if" ->
    advance p;
    eat_punct p "(";
    let c = parse_expr p in
    eat_punct p ")";
    let thn = parse_block_or_stmt p in
    let els =
      match p.tok with
      | KW "else" ->
        advance p;
        parse_block_or_stmt p
      | _ -> []
    in
    { s = Sif (c, thn, els); spos }
  | KW "for" -> parse_for p ~parallel:false spos
  | KW "parallel_for" -> parse_for p ~parallel:true spos
  | KW "while" ->
    advance p;
    eat_punct p "(";
    let c = parse_expr p in
    eat_punct p ")";
    let body = parse_block_or_stmt p in
    { s = Swhile (c, body); spos }
  | KW "spawn" ->
    advance p;
    let f = ident p in
    let args = parse_args p in
    eat_punct p ";";
    { s = Sspawn (f, args); spos }
  | KW "sync" ->
    advance p;
    eat_punct p ";";
    { s = Ssync; spos }
  | KW "return" ->
    advance p;
    if accept_punct p ";" then { s = Sreturn None; spos }
    else begin
      let e = parse_expr p in
      eat_punct p ";";
      { s = Sreturn (Some e); spos }
    end
  | IDENT name ->
    advance p;
    (match p.tok with
    | PUNCT "=" ->
      advance p;
      let e = parse_expr p in
      eat_punct p ";";
      { s = Sassign (name, e); spos }
    | PUNCT "[" ->
      advance p;
      let i = parse_expr p in
      eat_punct p "]";
      eat_punct p "=";
      let e = parse_expr p in
      eat_punct p ";";
      { s = Sstore (name, i, e); spos }
    | PUNCT "(" ->
      let args = parse_args p in
      eat_punct p ";";
      { s = Sexpr { e = Ecall (name, args); epos = spos }; spos }
    | _ -> fail p "expected '=', '[' or '(' after identifier")
  | _ -> fail p "expected a statement"

and parse_simple_assign (p : t) : stmt =
  (* init/step clause of a for: decl or assignment, no trailing ';' *)
  let spos = p.pos in
  if is_ty p then begin
    let ty = parse_ty p in
    let name = ident p in
    eat_punct p "=";
    let e = parse_expr p in
    { s = Sdecl (ty, name, e); spos }
  end
  else begin
    let name = ident p in
    eat_punct p "=";
    let e = parse_expr p in
    { s = Sassign (name, e); spos }
  end

and parse_for p ~parallel spos =
  advance p;
  eat_punct p "(";
  let init =
    if accept_punct p ";" then None
    else begin
      let s = parse_simple_assign p in
      eat_punct p ";";
      Some s
    end
  in
  let cond = parse_expr p in
  eat_punct p ";";
  let step =
    match p.tok with
    | PUNCT ")" -> None
    | _ -> Some (parse_simple_assign p)
  in
  eat_punct p ")";
  let body = parse_block_or_stmt p in
  { s = Sfor { init; cond; step; body; parallel }; spos }

and parse_block_or_stmt (p : t) : stmt list =
  if accept_punct p "{" then begin
    let rec go acc =
      match p.tok with
      | PUNCT "}" ->
        advance p;
        List.rev acc
      | _ -> go (parse_stmt p :: acc)
    in
    go []
  end
  else [ parse_stmt p ]

(* Top level *)

let parse_global (p : t) : global =
  let gpos = p.pos in
  eat_kw p "global";
  let gty = parse_ty p in
  let gname = ident p in
  eat_punct p "[";
  let gsize =
    match p.tok with
    | INT i ->
      advance p;
      Int64.to_int i
    | _ -> fail p "expected array size"
  in
  eat_punct p "]";
  eat_punct p ";";
  { gname; gty; gsize; gpos }

let parse_func (p : t) : func =
  let fpos = p.pos in
  eat_kw p "func";
  let fret = parse_ty p in
  let fname = ident p in
  eat_punct p "(";
  let fparams =
    if accept_punct p ")" then []
    else begin
      let rec go acc =
        let ty = parse_ty p in
        let name = ident p in
        if accept_punct p "," then go ((name, ty) :: acc)
        else begin
          eat_punct p ")";
          List.rev ((name, ty) :: acc)
        end
      in
      go []
    end
  in
  eat_punct p "{";
  let rec body acc =
    match p.tok with
    | PUNCT "}" ->
      advance p;
      List.rev acc
    | _ -> body (parse_stmt p :: acc)
  in
  { fname; fparams; fret; fbody = body []; fpos }

(** Parse a complete program from source text. *)
let parse (src : string) : program =
  let p = create src in
  let rec go globals funcs =
    match p.tok with
    | EOF -> { globals = List.rev globals; funcs = List.rev funcs }
    | KW "global" -> go (parse_global p :: globals) funcs
    | KW "func" ->
      let f = parse_func p in
      go globals (f :: funcs)
    | _ -> fail p "expected 'global' or 'func' at top level"
  in
  go [] []
