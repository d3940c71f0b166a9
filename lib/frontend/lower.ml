(** Lowering from the elaborated AST to the SSA compiler IR.

    The lowering is structured-control-flow SSA construction: every
    merge point (if-joins and loop headers) gets phis for exactly the
    variables assigned on the joining paths, so no later mem2reg pass
    is needed.  Each loop records {!Muir_ir.Func.loop_info} metadata
    that Algorithm 1 (μIR task extraction) consumes.

    [parallel_for] loops are outlined here: the body becomes a fresh
    function taking the induction variable and the body's free scalars
    as parameters; the loop itself spawns that function per iteration
    and a [sync] is placed after the loop — the TAPIR shape. *)

open Ast
module I = Muir_ir.Instr
module T = Muir_ir.Types
module B = Muir_ir.Builder
module F = Muir_ir.Func
module P = Muir_ir.Program

exception Error of string * pos

let fail pos fmt = Fmt.kstr (fun m -> raise (Error (m, pos))) fmt

let ir_ty : Ast.ty -> T.ty = function
  | Tint -> T.i32
  | Tfloat -> T.TFloat
  | Tbool -> T.TBool
  | Ttile -> T.TTensor { rows = 2; cols = 2 }
  | Tvoid -> T.TUnit

let tile_shape : T.shape = { rows = 2; cols = 2 }

module Env = Map.Make (String)
module SS = Set.Make (String)

type binding = { op : I.operand; bty : Ast.ty }

type ctx = {
  b : B.t;
  globals : (string * Ast.ty) list;
  mutable fsigs : (string * Typecheck.fsig) list;
  mutable extra : Ast.func list;  (** outlined bodies awaiting lowering *)
  gen_counter : int ref;          (** shared across the whole program *)
  fname : string;
  mutable depth : int;
  mutable terminated : bool;
}

(* ------------------------------------------------------------------ *)
(* Syntactic analyses over statement lists                             *)

(** Variables assigned by [stmts] that were declared outside of them. *)
let assigned_in (stmts : stmt list) : SS.t =
  let acc = ref SS.empty in
  let rec go_stmts declared stmts =
    ignore
      (List.fold_left
         (fun declared s -> go_stmt declared s)
         declared stmts)
  and go_stmt declared s =
    match s.s with
    | Sdecl (_, x, _) -> SS.add x declared
    | Sassign (x, _) ->
      if not (SS.mem x declared) then acc := SS.add x !acc;
      declared
    | Sif (_, t, e) ->
      go_stmts declared t;
      go_stmts declared e;
      declared
    | Sfor { init; step; body; _ } ->
      let declared' =
        match init with
        | Some { s = Sdecl (_, x, _); _ } -> SS.add x declared
        | Some ({ s = Sassign _; _ } as st) -> ignore (go_stmt declared st); declared
        | _ -> declared
      in
      go_stmts declared' body;
      (match step with Some st -> ignore (go_stmt declared' st) | None -> ());
      declared
    | Swhile (_, body) ->
      go_stmts declared body;
      declared
    | Sstore _ | Sspawn _ | Ssync | Sreturn _ | Sexpr _ -> declared
  in
  go_stmts SS.empty stmts;
  !acc

(** Free scalar variables read by [stmts] (reads of names not declared
    within, globals excluded by the caller). *)
let free_reads (stmts : stmt list) : SS.t =
  let acc = ref SS.empty in
  let rec go_expr declared e =
    match e.e with
    | Eint _ | Efloat _ | Ebool _ -> ()
    | Evar x -> if not (SS.mem x declared) then acc := SS.add x !acc
    | Eindex (_, i) -> go_expr declared i
    | Ebin (_, a, b2) -> go_expr declared a; go_expr declared b2
    | Eun (_, a) -> go_expr declared a
    | Eternary (c, a, b2) ->
      go_expr declared c; go_expr declared a; go_expr declared b2
    | Ecall (_, args) | Espawn (_, args) -> List.iter (go_expr declared) args
    | Ecast (_, a) -> go_expr declared a
  and go_stmts declared stmts =
    ignore (List.fold_left go_stmt declared stmts)
  and go_stmt declared s =
    match s.s with
    | Sdecl (_, x, e) ->
      go_expr declared e;
      SS.add x declared
    | Sassign (x, e) ->
      if not (SS.mem x declared) then acc := SS.add x !acc;
      go_expr declared e;
      declared
    | Sstore (_, i, e) ->
      go_expr declared i;
      go_expr declared e;
      declared
    | Sif (c, t, e) ->
      go_expr declared c;
      go_stmts declared t;
      go_stmts declared e;
      declared
    | Sfor { init; cond; step; body; _ } ->
      let declared' = List.fold_left go_stmt declared (Option.to_list init) in
      go_expr declared' cond;
      go_stmts declared' body;
      (match step with Some st -> ignore (go_stmt declared' st) | None -> ());
      declared
    | Swhile (c, body) ->
      go_expr declared c;
      go_stmts declared body;
      declared
    | Sspawn (_, args) ->
      List.iter (go_expr declared) args;
      declared
    | Ssync -> declared
    | Sreturn (Some e) -> go_expr declared e; declared
    | Sreturn None -> declared
    | Sexpr e -> go_expr declared e; declared
  in
  go_stmts SS.empty stmts;
  !acc

(* ------------------------------------------------------------------ *)
(* Expression lowering (always straight-line)                          *)

let rec lower_expr (ctx : ctx) (env : binding Env.t) (e : expr) :
    I.operand * Ast.ty =
  match e.e with
  | Eint i -> (I.CInt i, Tint)
  | Efloat f -> (I.CFloat f, Tfloat)
  | Ebool b -> (I.CBool b, Tbool)
  | Evar x -> (
    match Env.find_opt x env with
    | Some { op; bty } -> (op, bty)
    | None -> fail e.epos "lower: unbound variable %s" x)
  | Eindex (a, i) ->
    let addr = lower_addr ctx env a i in
    let elt = List.assoc a ctx.globals in
    (B.add ctx.b ~ty:(ir_ty elt) (I.Load { addr }), elt)
  | Ebin (op, a, b2) -> lower_bin ctx env e.epos op a b2
  | Eun (Uneg, a) -> (
    let va, ta = lower_expr ctx env a in
    match ta with
    | Tint -> (B.add ctx.b ~ty:T.i32 (I.Bin (Sub, CInt 0L, va)), Tint)
    | Tfloat -> (B.add ctx.b ~ty:T.TFloat (I.Funary (Fneg, va)), Tfloat)
    | _ -> fail e.epos "negation of non-numeric value")
  | Eun (Unot, a) ->
    let va, _ = lower_expr ctx env a in
    (B.add ctx.b ~ty:T.TBool (I.Bin (Xor, va, CInt 1L)), Tbool)
  | Eternary (c, a, b2) ->
    let vc, _ = lower_expr ctx env c in
    let va, ta = lower_expr ctx env a in
    let vb, _ = lower_expr ctx env b2 in
    (B.add ctx.b ~ty:(ir_ty ta) (I.Select (vc, va, vb)), ta)
  | Ecast (Tfloat, a) ->
    let va, _ = lower_expr ctx env a in
    (B.add ctx.b ~ty:T.TFloat (I.Cast (Sitofp, va)), Tfloat)
  | Ecast (Tint, a) -> (
    let va, ta = lower_expr ctx env a in
    match ta with
    | Tfloat -> (B.add ctx.b ~ty:T.i32 (I.Cast (Fptosi, va)), Tint)
    | Tbool -> (B.add ctx.b ~ty:T.i32 (I.Cast (Zext 32, va)), Tint)
    | _ -> (va, Tint))
  | Ecast (t, _) -> fail e.epos "lower: unsupported cast to %a" pp_ty t
  | Ecall (name, args) when is_intrinsic name ->
    lower_intrinsic ctx env e.epos name args
  | Ecall (name, args) ->
    let sg =
      match List.assoc_opt name ctx.fsigs with
      | Some s -> s
      | None -> fail e.epos "lower: unknown function %s" name
    in
    let vargs = List.map (fun a -> fst (lower_expr ctx env a)) args in
    ( B.add ctx.b ~ty:(ir_ty sg.sret) (I.Call { callee = name; args = vargs }),
      sg.sret )
  | Espawn (name, args) ->
    let sg =
      match List.assoc_opt name ctx.fsigs with
      | Some s -> s
      | None -> fail e.epos "lower: unknown function %s" name
    in
    let vargs = List.map (fun a -> fst (lower_expr ctx env a)) args in
    ( B.add ctx.b ~ty:(ir_ty sg.sret) (I.Spawn { callee = name; args = vargs }),
      sg.sret )

and lower_addr ctx env (a : string) (i : expr) : I.operand =
  let vi, _ = lower_expr ctx env i in
  B.add ctx.b ~ty:T.TPtr (I.Gep { base = GlobalAddr a; index = vi; scale = 1 })

and lower_bin ctx env pos (op : binop) a b2 : I.operand * Ast.ty =
  let va, ta = lower_expr ctx env a in
  let vb, _ = lower_expr ctx env b2 in
  let iadd k = (B.add ctx.b ~ty:T.i32 (I.Bin (k, va, vb)), Tint) in
  let fadd k = (B.add ctx.b ~ty:T.TFloat (I.Fbin (k, va, vb)), Tfloat) in
  let icmp k = (B.add ctx.b ~ty:T.TBool (I.Icmp (k, va, vb)), Tbool) in
  let fcmp k = (B.add ctx.b ~ty:T.TBool (I.Fcmp (k, va, vb)), Tbool) in
  match op, ta with
  | Badd, Tint -> iadd Add
  | Bsub, Tint -> iadd Sub
  | Bmul, Tint -> iadd Mul
  | Bdiv, Tint -> iadd Sdiv
  | Bmod, Tint -> iadd Srem
  | Badd, Tfloat -> fadd Fadd
  | Bsub, Tfloat -> fadd Fsub
  | Bmul, Tfloat -> fadd Fmul
  | Bdiv, Tfloat -> fadd Fdiv
  | Band, _ -> iadd And
  | Bor, _ -> iadd Or
  | Bxor, _ -> iadd Xor
  | Bshl, _ -> iadd Shl
  | Bshr, _ -> iadd Ashr
  | Blt, Tint -> icmp Slt
  | Ble, Tint -> icmp Sle
  | Bgt, Tint -> icmp Sgt
  | Bge, Tint -> icmp Sge
  | Beq, Tint -> icmp Eq
  | Bne, Tint -> icmp Ne
  | Blt, Tfloat -> fcmp Folt
  | Ble, Tfloat -> fcmp Fole
  | Bgt, Tfloat -> fcmp Fogt
  | Bge, Tfloat -> fcmp Foge
  | Beq, Tfloat -> fcmp Foeq
  | Bne, Tfloat -> fcmp Fone
  | Bland, _ ->
    (B.add ctx.b ~ty:T.TBool (I.Bin (And, va, vb)), Tbool)
  | Blor, _ ->
    (B.add ctx.b ~ty:T.TBool (I.Bin (Or, va, vb)), Tbool)
  | _ -> fail pos "lower: ill-typed binary operator"

and lower_intrinsic ctx env pos name args : I.operand * Ast.ty =
  let v1 () = fst (lower_expr ctx env (List.nth args 0)) in
  match name with
  | "exp" -> (B.add ctx.b ~ty:T.TFloat (I.Funary (Fexp, v1 ())), Tfloat)
  | "sqrt" -> (B.add ctx.b ~ty:T.TFloat (I.Funary (Fsqrt, v1 ())), Tfloat)
  | "abs" -> (B.add ctx.b ~ty:T.TFloat (I.Funary (Fabs, v1 ())), Tfloat)
  | "min" | "max" ->
    let a = fst (lower_expr ctx env (List.nth args 0)) in
    let b2 = fst (lower_expr ctx env (List.nth args 1)) in
    let pred = if name = "min" then I.Slt else I.Sgt in
    let c = B.add ctx.b ~ty:T.TBool (I.Icmp (pred, a, b2)) in
    (B.add ctx.b ~ty:T.i32 (I.Select (c, a, b2)), Tint)
  | "fmin" | "fmax" ->
    let a = fst (lower_expr ctx env (List.nth args 0)) in
    let b2 = fst (lower_expr ctx env (List.nth args 1)) in
    let pred = if name = "fmin" then I.Folt else I.Fogt in
    let c = B.add ctx.b ~ty:T.TBool (I.Fcmp (pred, a, b2)) in
    (B.add ctx.b ~ty:T.TFloat (I.Select (c, a, b2)), Tfloat)
  | "tload" -> (
    match args with
    | [ { e = Evar a; _ }; idx; stride ] ->
      let addr = lower_addr ctx env a idx in
      let vs, _ = lower_expr ctx env stride in
      ( B.add ctx.b ~ty:(T.TTensor tile_shape)
          (I.Tload { addr; row_stride = vs; shape = tile_shape }),
        Ttile )
    | _ -> fail pos "tload expects (array, index, stride)")
  | "tstore" -> (
    match args with
    | [ { e = Evar a; _ }; idx; stride; v ] ->
      let addr = lower_addr ctx env a idx in
      let vs, _ = lower_expr ctx env stride in
      let vv, _ = lower_expr ctx env v in
      B.add_unit ctx.b
        (I.Tstore { addr; row_stride = vs; value = vv; shape = tile_shape });
      (I.CInt 0L, Tvoid)
    | _ -> fail pos "tstore expects (array, index, stride, tile)")
  | "tmul" | "tadd" ->
    let a = fst (lower_expr ctx env (List.nth args 0)) in
    let b2 = fst (lower_expr ctx env (List.nth args 1)) in
    let k = if name = "tmul" then I.Tmul else I.Tadd in
    (B.add ctx.b ~ty:(T.TTensor tile_shape) (I.Tbin (k, a, b2)), Ttile)
  | "trelu" ->
    (B.add ctx.b ~ty:(T.TTensor tile_shape) (I.Tunary (Trelu, v1 ())), Ttile)
  | _ -> fail pos "lower: unknown intrinsic %s" name

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                  *)

let reg_of = function I.Reg r -> r | _ -> invalid_arg "reg_of"

let rec lower_stmts ctx env stmts =
  List.fold_left
    (fun env s -> if ctx.terminated then env else lower_stmt ctx env s)
    env stmts

and lower_stmt (ctx : ctx) (env : binding Env.t) (s : stmt) : binding Env.t =
  match s.s with
  | Sdecl (ty, x, e) ->
    let op, _ = lower_expr ctx env e in
    Env.add x { op; bty = ty } env
  | Sassign (x, e) ->
    let op, _ = lower_expr ctx env e in
    let bty = (Env.find x env).bty in
    Env.add x { op; bty } env
  | Sstore (a, i, e) ->
    let addr = lower_addr ctx env a i in
    let v, _ = lower_expr ctx env e in
    B.add_unit ctx.b (I.Store { addr; value = v });
    env
  | Sif (c, thn, els) -> lower_if ctx env c thn els
  | Sfor { init; cond; step; body; parallel } ->
    if parallel then lower_parallel_for ctx env s.spos init cond step body
    else lower_for ctx env ~init ~cond ~step ~body ~parallel:false
  | Swhile (c, body) ->
    lower_for ctx env ~init:None ~cond:c ~step:None ~body ~parallel:false
  | Sspawn (name, args) ->
    let vargs = List.map (fun a -> fst (lower_expr ctx env a)) args in
    B.add_unit ctx.b (I.Spawn { callee = name; args = vargs });
    env
  | Ssync ->
    B.add_unit ctx.b I.Sync;
    env
  | Sreturn None ->
    B.set_term ctx.b (I.Ret None);
    ctx.terminated <- true;
    env
  | Sreturn (Some e) ->
    let v, _ = lower_expr ctx env e in
    B.set_term ctx.b (I.Ret (Some v));
    ctx.terminated <- true;
    env
  | Sexpr e ->
    ignore (lower_expr ctx env e);
    env

and lower_if ctx env c thn els =
  let vc, _ = lower_expr ctx env c in
  let then_l = B.new_block ctx.b in
  let else_l = B.new_block ctx.b in
  B.set_term ctx.b (I.CondBr (vc, then_l, else_l));
  B.position_at ctx.b then_l;
  ctx.terminated <- false;
  let env_t = lower_stmts ctx env thn in
  let t_end = B.current_label ctx.b in
  let t_term = ctx.terminated in
  B.position_at ctx.b else_l;
  ctx.terminated <- false;
  let env_e = lower_stmts ctx env els in
  let e_end = B.current_label ctx.b in
  let e_term = ctx.terminated in
  if t_term && e_term then begin
    ctx.terminated <- true;
    env
  end
  else begin
    let merge_l = B.new_block ctx.b in
    if not t_term then B.set_term_of ctx.b t_end (I.Br merge_l);
    if not e_term then B.set_term_of ctx.b e_end (I.Br merge_l);
    B.position_at ctx.b merge_l;
    ctx.terminated <- false;
    if t_term then env_e
    else if e_term then env_t
    else
      (* Merge: phi for outer-scope variables whose value differs. *)
      Env.mapi
        (fun x (outer : binding) ->
          let bt = Env.find x env_t and be = Env.find x env_e in
          if bt.op = be.op then bt
          else
            let op =
              B.add_phi ctx.b merge_l ~ty:(ir_ty outer.bty)
                [ (t_end, bt.op); (e_end, be.op) ]
            in
            { op; bty = outer.bty })
        env
  end

and lower_for ctx env ~init ~cond ~step ~body ~parallel =
  let env0 =
    match init with None -> env | Some st -> lower_stmt ctx env st
  in
  let pre_lbl = B.current_label ctx.b in
  let body_and_step = body @ Option.to_list step in
  let assigned =
    SS.filter (fun x -> Env.mem x env0) (assigned_in body_and_step)
  in
  let header = B.new_block ctx.b in
  B.set_term ctx.b (I.Br header);
  (* Header phis for loop-carried variables. *)
  let phis =
    SS.fold
      (fun x acc ->
        let bty = (Env.find x env0).bty in
        let op = B.add_phi ctx.b header ~ty:(ir_ty bty) [] in
        (x, op) :: acc)
      assigned []
  in
  let env_h =
    List.fold_left
      (fun e (x, op) -> Env.add x { op; bty = (Env.find x env0).bty } e)
      env0 phis
  in
  B.position_at ctx.b header;
  let vc, _ = lower_expr ctx env_h cond in
  let body_l = B.new_block ctx.b in
  B.position_at ctx.b body_l;
  ctx.depth <- ctx.depth + 1;
  let env_b = lower_stmts ctx env_h body in
  ctx.depth <- ctx.depth - 1;
  let body_end = B.current_label ctx.b in
  let latch = B.new_block ctx.b in
  B.set_term_of ctx.b body_end (I.Br latch);
  B.position_at ctx.b latch;
  let env_l =
    match step with None -> env_b | Some st -> lower_stmt ctx env_b st
  in
  B.set_term ctx.b (I.Br header);
  let exit = B.new_block ctx.b in
  B.set_term_of ctx.b header (I.CondBr (vc, body_l, exit));
  List.iter
    (fun (x, op) ->
      B.set_phi_incoming ctx.b header (reg_of op)
        [ (pre_lbl, (Env.find x env0).op); (latch, (Env.find x env_l).op) ])
    phis;
  B.position_at ctx.b exit;
  B.add_loop ctx.b
    { preheader = pre_lbl; header; latch; exit;
      body = List.init (exit - header) (fun k -> header + k);
      depth = ctx.depth + 1; parallel };
  (* After the loop, carried variables hold their header-phi values. *)
  env_h

and lower_parallel_for ctx env pos init cond step body =
  let loop_var, var_ty =
    match init with
    | Some { s = Sdecl (Tint, v, _); _ } -> (v, Tint)
    | _ -> fail pos "parallel_for must declare an int induction variable"
  in
  (* Free scalar reads of the body become by-value parameters. *)
  let frees =
    free_reads body
    |> SS.remove loop_var
    |> SS.filter (fun x ->
           Env.mem x env && not (List.mem_assoc x ctx.globals))
    |> SS.elements
  in
  let param_tys =
    List.map (fun x -> (x, (Env.find x env).bty)) frees
  in
  (* The next [<f>_par<k>] that names no user function and no body
     generated so far. *)
  let rec fresh_name () =
    let k = !(ctx.gen_counter) in
    incr ctx.gen_counter;
    let name = Fmt.str "%s_par%d" ctx.fname k in
    if List.mem_assoc name ctx.fsigs then fresh_name () else name
  in
  let gen_name = fresh_name () in
  let gen_func =
    { fname = gen_name;
      fparams = (loop_var, var_ty) :: param_tys;
      fret = Tvoid;
      fbody = body;
      fpos = pos }
  in
  ctx.extra <- gen_func :: ctx.extra;
  ctx.fsigs <-
    (gen_name,
     { Typecheck.sparams = Tint :: List.map snd param_tys; sret = Tvoid })
    :: ctx.fsigs;
  let spawn_stmt =
    { s =
        Sspawn
          ( gen_name,
            { e = Evar loop_var; epos = pos }
            :: List.map (fun x -> { e = Evar x; epos = pos }) frees );
      spos = pos }
  in
  let env' =
    lower_for ctx env ~init ~cond ~step ~body:[ spawn_stmt ] ~parallel:true
  in
  B.add_unit ctx.b I.Sync;
  env'

(* ------------------------------------------------------------------ *)
(* Program lowering                                                    *)

let lower_func (globals : (string * Ast.ty) list)
    (fsigs : (string * Typecheck.fsig) list) (gen_counter : int ref)
    (f : Ast.func) : F.t * Ast.func list * (string * Typecheck.fsig) list =
  let b =
    B.create ~name:f.fname
      ~params:(List.map (fun (x, t) -> (x, ir_ty t)) f.fparams)
      ~ret:(ir_ty f.fret)
  in
  let ctx =
    { b; globals; fsigs; extra = []; gen_counter; fname = f.fname;
      depth = 0; terminated = false }
  in
  let entry = B.new_block b in
  B.position_at b entry;
  let env =
    List.fold_left
      (fun (i, env) (x, t) -> (i + 1, Env.add x { op = I.Reg i; bty = t } env))
      (0, Env.empty) f.fparams
    |> snd
  in
  let _ = lower_stmts ctx env f.fbody in
  if not ctx.terminated then B.set_term b (I.Ret None);
  (B.finish b, List.rev ctx.extra, ctx.fsigs)

(** Lower a checked AST program to the compiler IR. *)
let lower (astp : Ast.program) : P.t =
  let globals = List.map (fun g -> (g.gname, g.gty)) astp.globals in
  let fsigs =
    List.map
      (fun (f : Ast.func) ->
        (f.fname,
         { Typecheck.sparams = List.map snd f.fparams; sret = f.fret }))
      astp.funcs
  in
  let gen_counter = ref 0 in
  let rec go fsigs acc = function
    | [] -> List.rev acc
    | f :: rest ->
      let irf, extra, fsigs' = lower_func globals fsigs gen_counter f in
      go fsigs' (irf :: acc) (rest @ extra)
  in
  let funcs = go fsigs [] astp.funcs in
  let prog_globals =
    P.layout
      (List.map
         (fun (g : Ast.global) -> (g.gname, g.gsize, ir_ty g.gty, None))
         astp.globals)
  in
  { P.globals = prog_globals; funcs }
