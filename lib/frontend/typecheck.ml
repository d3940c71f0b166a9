(** Type checker and elaborator.

    Validates the program and returns an elaborated copy in which the
    implicit conversions the surface syntax allows (integer literals
    used in float positions) are rewritten into explicit [Ecast]
    nodes, so that the SSA lowering never needs to coerce. *)

open Ast

exception Error of string * pos

let fail pos fmt = Fmt.kstr (fun m -> raise (Error (m, pos))) fmt

type fsig = { sparams : ty list; sret : ty }

type genv = {
  globals : (string * ty) list;        (** element types *)
  funcs : (string * fsig) list;
}

module Env = Map.Make (String)

(* An int literal (or a negated one) can be implicitly retyped float. *)
let rec as_float_literal (e : expr) : expr option =
  match e.e with
  | Eint i -> Some { e with e = Efloat (Int64.to_float i) }
  | Eun (Uneg, inner) -> (
    match as_float_literal inner with
    | Some f -> Some { e with e = Eun (Uneg, f) }
    | None -> None)
  | _ -> None

let rec check_expr (g : genv) (env : ty Env.t) (e : expr) : expr * ty =
  let pos = e.epos in
  match e.e with
  | Eint _ -> (e, Tint)
  | Efloat _ -> (e, Tfloat)
  | Ebool _ -> (e, Tbool)
  | Evar x -> (
    match Env.find_opt x env with
    | Some t -> (e, t)
    | None -> fail pos "unknown variable %s" x)
  | Eindex (a, i) -> (
    match List.assoc_opt a g.globals with
    | None -> fail pos "unknown global array %s" a
    | Some elt ->
      let i', ti = check_expr g env i in
      if ti <> Tint then fail pos "index of %s must be int, got %a" a pp_ty ti;
      ({ e with e = Eindex (a, i') }, elt))
  | Ebin (op, a, b) ->
    let a', ta = check_expr g env a in
    let b', tb = check_expr g env b in
    (* Implicit literal promotion. *)
    let a', ta, b', tb =
      if ta = Tint && tb = Tfloat then
        match as_float_literal a' with
        | Some fa -> (fa, Tfloat, b', tb)
        | None -> (a', ta, b', tb)
      else if ta = Tfloat && tb = Tint then
        match as_float_literal b' with
        | Some fb -> (a', ta, fb, Tfloat)
        | None -> (a', ta, b', tb)
      else (a', ta, b', tb)
    in
    let out = { e with e = Ebin (op, a', b') } in
    (match op with
    | Badd | Bsub | Bmul | Bdiv ->
      if ta = Tint && tb = Tint then (out, Tint)
      else if ta = Tfloat && tb = Tfloat then (out, Tfloat)
      else fail pos "arithmetic operands must both be int or both float"
    | Bmod | Band | Bor | Bxor | Bshl | Bshr ->
      if ta = Tint && tb = Tint then (out, Tint)
      else fail pos "integer operator applied to non-int operands"
    | Blt | Ble | Bgt | Bge | Beq | Bne ->
      if ta = tb && (ta = Tint || ta = Tfloat) then (out, Tbool)
      else fail pos "comparison operands must both be int or both float"
    | Bland | Blor ->
      if ta = Tbool && tb = Tbool then (out, Tbool)
      else fail pos "logical operator needs bool operands")
  | Eun (Uneg, a) ->
    let a', ta = check_expr g env a in
    if ta = Tint || ta = Tfloat then ({ e with e = Eun (Uneg, a') }, ta)
    else fail pos "unary '-' needs int or float"
  | Eun (Unot, a) ->
    let a', ta = check_expr g env a in
    if ta = Tbool then ({ e with e = Eun (Unot, a') }, Tbool)
    else fail pos "'!' needs bool"
  | Eternary (c, a, b) ->
    let c', tc = check_expr g env c in
    if tc <> Tbool then fail pos "ternary condition must be bool";
    let a', ta = check_expr g env a in
    let b', tb = check_expr g env b in
    let a', ta, b', tb =
      if ta = Tint && tb = Tfloat then
        match as_float_literal a' with
        | Some fa -> (fa, Tfloat, b', tb)
        | None -> (a', ta, b', tb)
      else if ta = Tfloat && tb = Tint then
        match as_float_literal b' with
        | Some fb -> (a', ta, fb, Tfloat)
        | None -> (a', ta, b', tb)
      else (a', ta, b', tb)
    in
    if ta <> tb then fail pos "ternary arms have different types";
    ({ e with e = Eternary (c', a', b') }, ta)
  | Ecast (Tfloat, a) ->
    let a', ta = check_expr g env a in
    if ta = Tint then ({ e with e = Ecast (Tfloat, a') }, Tfloat)
    else if ta = Tfloat then (a', Tfloat)
    else fail pos "float() needs an int argument"
  | Ecast (Tint, a) ->
    let a', ta = check_expr g env a in
    if ta = Tfloat then ({ e with e = Ecast (Tint, a') }, Tint)
    else if ta = Tint then (a', Tint)
    else if ta = Tbool then ({ e with e = Ecast (Tint, a') }, Tint)
    else fail pos "int() needs a float or bool argument"
  | Ecast (t, _) -> fail pos "cannot cast to %a" pp_ty t
  | Ecall (name, args) -> check_call g env pos name args ~spawn:false e
  | Espawn (name, args) -> check_call g env pos name args ~spawn:true e

and check_call g env pos name args ~spawn (orig : expr) : expr * ty =
  (* The first argument of tload/tstore is an array name, not an
     expression; validate it separately and check only the rest. *)
  let checked =
    match name, args with
    | ("tload" | "tstore"), first :: rest when not spawn ->
      let arr_ok =
        match first.e with
        | Evar a -> List.assoc_opt a g.globals = Some Tfloat
        | _ -> false
      in
      if not arr_ok then
        fail pos "%s's first argument must be a float global array" name;
      (first, Tvoid) :: List.map (fun a -> check_expr g env a) rest
    | _ -> List.map (fun a -> check_expr g env a) args
  in
  let rebuilt a =
    if spawn then { orig with e = Espawn (name, a) }
    else { orig with e = Ecall (name, a) }
  in
  let expect_arity n =
    if List.length args <> n then
      fail pos "%s expects %d argument(s), got %d" name n (List.length args)
  in
  let coerce_float (e', t) =
    if t = Tfloat then e'
    else
      match as_float_literal e' with
      | Some f -> f
      | None -> fail pos "%s expects a float argument" name
  in
  if is_intrinsic name && not spawn then begin
    match name with
    | "exp" | "sqrt" | "abs" ->
      expect_arity 1;
      (rebuilt (List.map coerce_float checked), Tfloat)
    | "fmin" | "fmax" ->
      expect_arity 2;
      (rebuilt (List.map coerce_float checked), Tfloat)
    | "min" | "max" ->
      expect_arity 2;
      List.iter
        (fun (_, t) -> if t <> Tint then fail pos "%s expects ints" name)
        checked;
      (rebuilt (List.map fst checked), Tint)
    | "tload" ->
      expect_arity 3;
      (match args with
      | { e = Evar a; _ } :: _ when List.assoc_opt a g.globals = Some Tfloat ->
        let rest = List.tl checked in
        List.iter
          (fun (_, t) ->
            if t <> Tint then fail pos "tload offsets must be int")
          rest;
        (rebuilt (List.nth args 0 :: List.map fst rest), Ttile)
      | _ -> fail pos "tload's first argument must be a float global array")
    | "tstore" ->
      expect_arity 4;
      (match args with
      | { e = Evar a; _ } :: _ when List.assoc_opt a g.globals = Some Tfloat ->
        let rest = List.tl checked in
        (match rest with
        | [ (_, Tint); (_, Tint); (_, Ttile) ] -> ()
        | _ -> fail pos "tstore expects (array, int, int, tile)");
        (rebuilt (List.nth args 0 :: List.map fst rest), Tvoid)
      | _ -> fail pos "tstore's first argument must be a float global array")
    | "tmul" | "tadd" ->
      expect_arity 2;
      List.iter
        (fun (_, t) -> if t <> Ttile then fail pos "%s expects tiles" name)
        checked;
      (rebuilt (List.map fst checked), Ttile)
    | "trelu" ->
      expect_arity 1;
      (match checked with
      | [ (_, Ttile) ] -> ()
      | _ -> fail pos "trelu expects a tile");
      (rebuilt (List.map fst checked), Ttile)
    | _ -> assert false
  end
  else begin
    match List.assoc_opt name g.funcs with
    | None -> fail pos "unknown function %s" name
    | Some { sparams; sret } ->
      expect_arity (List.length sparams);
      let coerced =
        List.map2
          (fun (e', t) expected ->
            if t = expected then e'
            else if expected = Tfloat && t = Tint then
              match as_float_literal e' with
              | Some f -> f
              | None ->
                fail pos "argument type mismatch in call to %s" name
            else fail pos "argument type mismatch in call to %s" name)
          checked sparams
      in
      (rebuilt coerced, sret)
  end

type sctx = {
  g : genv;
  fret : ty;
  in_loop : bool;
  in_parallel_body : bool;
  outer_scalars : unit Env.t;
      (** names declared outside the current parallel_for body *)
}

let rec check_stmts (ctx : sctx) (env : ty Env.t) (stmts : stmt list) :
    ty Env.t * stmt list =
  match stmts with
  | [] -> (env, [])
  | s :: rest ->
    let env', s' = check_stmt ctx env s in
    let env'', rest' = check_stmts ctx env' rest in
    (env'', s' :: rest')

and check_stmt (ctx : sctx) (env : ty Env.t) (s : stmt) : ty Env.t * stmt =
  let pos = s.spos in
  match s.s with
  | Sdecl (ty, x, e) ->
    if ty = Tvoid then fail pos "cannot declare a void variable";
    let e', te = check_expr ctx.g env e in
    let e' =
      if te = ty then e'
      else if ty = Tfloat && te = Tint then
        match as_float_literal e' with
        | Some f -> f
        | None -> fail pos "initializer for float %s has type int" x
      else fail pos "initializer type mismatch for %s" x
    in
    (Env.add x ty env, { s with s = Sdecl (ty, x, e') })
  | Sassign (x, e) -> (
    match Env.find_opt x env with
    | None -> fail pos "assignment to undeclared variable %s" x
    | Some tx ->
      if ctx.in_parallel_body && Env.mem x ctx.outer_scalars then
        fail pos
          "parallel_for body may not assign outer scalar %s (results must \
           flow through arrays)" x;
      let e', te = check_expr ctx.g env e in
      let e' =
        if te = tx then e'
        else if tx = Tfloat && te = Tint then
          match as_float_literal e' with
          | Some f -> f
          | None -> fail pos "assigning int to float variable %s" x
        else fail pos "assignment type mismatch for %s" x
      in
      (env, { s with s = Sassign (x, e') }))
  | Sstore (a, i, e) -> (
    match List.assoc_opt a ctx.g.globals with
    | None -> fail pos "unknown global array %s" a
    | Some elt ->
      let i', ti = check_expr ctx.g env i in
      if ti <> Tint then fail pos "store index must be int";
      let e', te = check_expr ctx.g env e in
      let e' =
        if te = elt then e'
        else if elt = Tfloat && te = Tint then
          match as_float_literal e' with
          | Some f -> f
          | None -> fail pos "storing int into float array %s" a
        else fail pos "store type mismatch for %s" a
      in
      (env, { s with s = Sstore (a, i', e') }))
  | Sif (c, thn, els) ->
    let c', tc = check_expr ctx.g env c in
    if tc <> Tbool then fail pos "if condition must be bool";
    let _, thn' = check_stmts ctx env thn in
    let _, els' = check_stmts ctx env els in
    (env, { s with s = Sif (c', thn', els') })
  | Sfor { init; cond; step; body; parallel } ->
    let env_in, init' =
      match init with
      | None -> (env, None)
      | Some i ->
        let env', i' = check_stmt ctx env i in
        (env', Some i')
    in
    let cond', tc = check_expr ctx.g env_in cond in
    if tc <> Tbool then fail pos "loop condition must be bool";
    let body_ctx =
      if parallel then
        { ctx with
          in_loop = true;
          in_parallel_body = true;
          outer_scalars = Env.map (fun _ -> ()) env_in }
      else { ctx with in_loop = true }
    in
    let _, body' = check_stmts body_ctx env_in body in
    let step' =
      match step with
      | None -> None
      | Some st ->
        let _, st' = check_stmt { ctx with in_loop = true } env_in st in
        Some st'
    in
    (env, { s with s = Sfor { init = init'; cond = cond'; step = step';
                              body = body'; parallel } })
  | Swhile (c, body) ->
    let c', tc = check_expr ctx.g env c in
    if tc <> Tbool then fail pos "while condition must be bool";
    let _, body' = check_stmts { ctx with in_loop = true } env body in
    (env, { s with s = Swhile (c', body') })
  | Sspawn (name, args) ->
    let e', _ = check_call ctx.g env pos name args ~spawn:true
        { e = Espawn (name, args); epos = pos } in
    (match e'.e with
    | Espawn (n, a) -> (env, { s with s = Sspawn (n, a) })
    | _ -> assert false)
  | Ssync -> (env, s)
  | Sreturn None ->
    if ctx.fret <> Tvoid then fail pos "missing return value";
    if ctx.in_loop then fail pos "return inside a loop is not supported";
    (env, s)
  | Sreturn (Some e) ->
    if ctx.fret = Tvoid then fail pos "void function returns a value";
    if ctx.in_loop then fail pos "return inside a loop is not supported";
    let e', te = check_expr ctx.g env e in
    let e' =
      if te = ctx.fret then e'
      else if ctx.fret = Tfloat && te = Tint then
        match as_float_literal e' with
        | Some f -> f
        | None -> fail pos "return type mismatch"
      else fail pos "return type mismatch"
    in
    (env, { s with s = Sreturn (Some e') })
  | Sexpr e ->
    let e', _ = check_expr ctx.g env e in
    (env, { s with s = Sexpr e' })

let check_func (g : genv) (f : func) : func =
  let env =
    List.fold_left (fun env (x, t) -> Env.add x t env) Env.empty f.fparams
  in
  let ctx =
    { g; fret = f.fret; in_loop = false; in_parallel_body = false;
      outer_scalars = Env.empty }
  in
  let _, body = check_stmts ctx env f.fbody in
  { f with fbody = body }

(** Check and elaborate a whole program. *)
let check (p : program) : program =
  (* Duplicate names, reported at the second definition. *)
  let no_dups what defs =
    ignore
      (List.fold_left
         (fun seen (n, pos) ->
           if Env.mem n seen then fail pos "duplicate %s %s" what n;
           Env.add n () seen)
         Env.empty defs)
  in
  no_dups "global" (List.map (fun g -> (g.gname, g.gpos)) p.globals);
  no_dups "function" (List.map (fun f -> (f.fname, f.fpos)) p.funcs);
  List.iter
    (fun g ->
      if g.gsize <= 0 then fail g.gpos "global %s has non-positive size" g.gname;
      if g.gty <> Tint && g.gty <> Tfloat then
        fail g.gpos "global arrays must be int or float")
    p.globals;
  let genv =
    { globals = List.map (fun g -> (g.gname, g.gty)) p.globals;
      funcs =
        List.map
          (fun f ->
            (f.fname,
             { sparams = List.map snd f.fparams; sret = f.fret }))
          p.funcs }
  in
  { p with funcs = List.map (check_func genv) p.funcs }
