(** Parallel race detection on the compiler IR.

    TAPIR-style [spawn] makes the child task run concurrently with the
    continuation until the next [sync]; [parallel_for] lowers to a
    spawn per iteration.  Two sibling tasks — spawns mutually
    reachable without crossing a sync — therefore run unordered, and
    a pair of accesses to the same location with at least one write is
    a race.

    We summarise what each spawn may touch with a small affine address
    analysis: every address is [global + Σ cᵢ·leafᵢ + k] where leaves
    are registers the analysis cannot see through (parameters, phis,
    load results).  The arithmetic is {!Muir_ir.Affine}'s, shared with
    μIR construction; the expansion rules are this analysis's own.
    Spawn arguments are substituted into the callee's summary, so a
    [parallel_for] body indexed by the loop variable shows up in the
    caller as an affine function of the loop's header phi — the
    induction variable that distinguishes sibling iterations.
    Independence is then arithmetic:

    - forms that differ by a nonzero constant never collide;
    - forms with one equal nonzero induction coefficient collide only
      when the iteration distance hits [-δ/c], impossible when [δ = 0]
      or [c ∤ δ];
    - equal forms with no induction dependence collide on every pair
      of iterations — a provable race, reported as an error;
    - anything the analysis cannot see through (distinct arrays
      aside) is reported as a may-race warning. *)

module I = Muir_ir.Instr
module F = Muir_ir.Func
module P = Muir_ir.Program
module T = Muir_ir.Types
module A = Muir_ir.Affine

(* ------------------------------------------------------------------ *)
(* Affine address forms                                                *)

(** A leaf is a register the analysis treats as opaque, tagged with
    its function so callee-internal leaves survive substitution into
    the caller without colliding with the caller's numbering. *)
type leaf = string * I.reg

(** A form's base is the name of the global array it points into. *)
type aff = (string, leaf) A.t

(** The form of operand [op] of function [fn]: a register [env] has not
    folded is a leaf, and a float has no form. *)
let operand_form (env : (I.reg, aff) Hashtbl.t) (fn : string)
    (op : I.operand) : aff option =
  match op with
  | I.Reg r -> (
    match Hashtbl.find_opt env r with
    | Some a -> Some a
    | None -> Some (A.leaf (fn, r)))
  | I.CInt i -> Some (A.const (Int64.to_int i))
  | I.CBool b -> Some (A.const (if b then 1 else 0))
  | I.GlobalAddr g -> Some (A.of_base g)
  | I.CFloat _ -> None

(** Per-function affine environment: every register folded to a form,
    [shl] by a constant included, opaque results becoming their own
    leaf. *)
let affine_env (f : F.t) : (I.reg, aff) Hashtbl.t =
  let env = Hashtbl.create 64 in
  List.iter
    (fun (p : F.param) ->
      Hashtbl.replace env p.preg (A.leaf (f.name, p.preg)))
    f.params;
  let of_op = operand_form env f.name in
  let ( let* ) = Option.bind in
  let eval (i : I.t) : aff option =
    match i.kind with
    | I.Bin (I.Add, a, b) ->
      let* a = of_op a in
      let* b = of_op b in
      A.add a b
    | I.Bin (I.Sub, a, b) ->
      let* a = of_op a in
      let* b = of_op b in
      let* nb = A.scale (-1) b in
      A.add a nb
    | I.Bin (I.Mul, a, b) -> (
      let* a = of_op a in
      let* b = of_op b in
      match (A.is_const a, A.is_const b) with
      | true, _ -> A.scale a.konst b
      | _, true -> A.scale b.konst a
      | _ -> None)
    | I.Bin (I.Shl, a, b) -> (
      let* a = of_op a in
      let* b = of_op b in
      if A.is_const b && b.konst >= 0 && b.konst < 31 then
        A.scale (1 lsl b.konst) a
      else None)
    | I.Gep { base; index; scale } ->
      let* b = of_op base in
      let* i = of_op index in
      let* si = A.scale scale i in
      A.add b si
    | _ -> None
  in
  F.iter_instrs
    (fun (i : I.t) ->
      if not (T.equal_ty i.ty T.TUnit) then
        Hashtbl.replace env i.id
          (match eval i with Some a -> a | None -> A.leaf (f.name, i.id)))
    f;
  env

(* ------------------------------------------------------------------ *)
(* Access summaries                                                    *)

type access = {
  aspace : string option;  (** global array, [None] = could be anywhere *)
  awrite : bool;
  aform : aff option;      (** address form, [None] = whole space *)
}

let direct_accesses (env : (I.reg, aff) Hashtbl.t) (f : F.t) : access list =
  F.fold_instrs
    (fun acc (i : I.t) ->
      match I.mem_access i with
      | None -> acc
      | Some (addr, awrite) ->
        let aspace, aform =
          match (operand_form env f.name addr, i.kind) with
          | Some { base = Some g; _ }, (I.Tload _ | I.Tstore _) ->
            (* tile ops sweep a rectangle; keep the array, drop the form *)
            (Some g, None)
          | Some ({ base = Some g; _ } as a), _ -> (Some g, Some a)
          | _ -> (None, None)
        in
        { aspace; awrite; aform } :: acc)
    [] f

(** Transitive may-touch sets [(array, writes?)], fixpoint over the
    call graph including spawn targets. *)
let touch_sets (p : P.t) : (string, (string option * bool) list) Hashtbl.t =
  let touch : (string, (string option * bool) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let envs = Hashtbl.create 16 in
  List.iter
    (fun (f : F.t) ->
      Hashtbl.replace envs f.name (affine_env f);
      Hashtbl.replace touch f.name
        (List.sort_uniq compare
           (List.map
              (fun a -> (a.aspace, a.awrite))
              (direct_accesses (Hashtbl.find envs f.name) f))))
    p.funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : F.t) ->
        let cur = Hashtbl.find touch f.name in
        let extra =
          F.fold_instrs
            (fun acc (i : I.t) ->
              match i.kind with
              | I.Call { callee; _ } | I.Spawn { callee; _ } ->
                (match Hashtbl.find_opt touch callee with
                | Some ts -> ts @ acc
                | None -> acc)
              | _ -> acc)
            [] f
        in
        let merged = List.sort_uniq compare (extra @ cur) in
        if merged <> cur then begin
          Hashtbl.replace touch f.name merged;
          changed := true
        end)
      p.funcs
  done;
  touch

(** What one spawn site may touch, phrased in the caller's leaf space:
    the callee's direct accesses with parameters substituted by the
    actual arguments' forms, plus whole-space entries for everything
    deeper calls may reach. *)
let spawn_summary (p : P.t) ~(touch : (string, (string option * bool) list) Hashtbl.t)
    ~(caller_env : (I.reg, aff) Hashtbl.t) (caller : F.t)
    (callee_name : string) (args : I.operand list) : access list =
  if not (P.has_func p callee_name) then []
  else begin
    let g = P.find_func p callee_name in
    let genv = affine_env g in
    let subst : (leaf * aff) list =
      List.concat
        (List.mapi
           (fun i (prm : F.param) ->
             match List.nth_opt args i with
             | None -> []
             | Some op ->
               match operand_form caller_env caller.name op with
               | Some a -> [ (((g.name, prm.preg) : leaf), a) ]
               | None -> [])
           g.params)
    in
    let subst_form (a : aff) : aff option =
      let ( let* ) = Option.bind in
      List.fold_left
        (fun acc (l, c) ->
          let* acc = acc in
          let s = Option.value (List.assoc_opt l subst) ~default:(A.leaf l) in
          let* sc = A.scale c s in
          A.add acc sc)
        (Some { a with coeffs = [] })
        a.coeffs
    in
    let direct =
      List.map
        (fun (a : access) ->
          match a.aform with
          | None -> a
          | Some fm -> (
            match subst_form fm with
            | None -> { a with aform = None }
            | Some fm' ->
              { a with
                aspace =
                  (match fm'.base with Some g -> Some g | None -> a.aspace);
                aform = Some fm' }))
        (direct_accesses genv g)
    in
    let deeper =
      F.fold_instrs
        (fun acc (i : I.t) ->
          match i.kind with
          | I.Call { callee; _ } | I.Spawn { callee; _ } ->
            (match Hashtbl.find_opt touch callee with
            | Some ts ->
              List.map
                (fun (sp, w) -> { aspace = sp; awrite = w; aform = None })
                ts
              @ acc
            | None -> acc)
          | _ -> acc)
        [] g
    in
    direct @ deeper
  end

(* ------------------------------------------------------------------ *)
(* Sibling spawn sites                                                 *)

type site = {
  sblock : I.label;
  sinstr : I.t;
  scallee : string;
  sargs : I.operand list;
}

(** Forward sync-free region of a spawn: the spawn sites reachable
    without crossing a [sync], and the blocks whose terminator is
    reached sync-free (used to decide which enclosing loops can
    deliver a second, concurrent instance of this spawn). *)
let sync_free_region (f : F.t) (s : site) :
    (int, unit) Hashtbl.t * (I.label, unit) Hashtbl.t =
  let sites_hit = Hashtbl.create 8 in
  let term_free = Hashtbl.create 8 in
  let visited = Hashtbl.create 8 in
  let scan_instrs blk_label (instrs : I.t list) : bool (* fell through *) =
    let rec go = function
      | [] -> true
      | (i : I.t) :: rest -> (
        match i.kind with
        | I.Sync -> false
        | I.Spawn _ ->
          Hashtbl.replace sites_hit i.id ();
          go rest
        | _ -> go rest)
    in
    let fell = go instrs in
    if fell then Hashtbl.replace term_free blk_label ();
    fell
  in
  let rec enter (l : I.label) =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.replace visited l ();
      let blk = F.block f l in
      if scan_instrs l blk.instrs then
        List.iter enter (F.successors blk)
    end
  in
  let b0 = F.block f s.sblock in
  let rec after = function
    | [] -> []
    | (i : I.t) :: rest -> if i == s.sinstr then rest else after rest
  in
  if scan_instrs s.sblock (after b0.instrs) then
    List.iter enter (F.successors b0);
  (sites_hit, term_free)

(** Header phis of the loops that can re-dispatch [s] without an
    intervening sync — the registers whose values distinguish two
    concurrent instances of the same spawn site. *)
let varying_ivs (f : F.t) (s : site) (term_free : (I.label, unit) Hashtbl.t)
    : (leaf list * I.label list) =
  let lps =
    List.filter
      (fun (lp : F.loop_info) ->
        List.mem s.sblock lp.body && Hashtbl.mem term_free lp.latch)
      f.loops
  in
  let ivs =
    List.concat_map
      (fun (lp : F.loop_info) ->
        List.filter_map
          (fun (i : I.t) ->
            match i.kind with
            | I.Phi _ -> Some ((f.name, i.id) : leaf)
            | _ -> None)
          (F.block f lp.header).instrs)
      lps
  in
  let bodies = List.concat_map (fun (lp : F.loop_info) -> lp.body) lps in
  (List.sort_uniq compare ivs, List.sort_uniq compare bodies)

(* ------------------------------------------------------------------ *)
(* Independence arithmetic                                             *)

type verdict = Safe | Maybe | Definite

(** Is leaf [l] guaranteed to hold the same value in both concurrent
    task instances?  Caller values defined outside the varying loops
    are captured once and shared; anything produced per iteration or
    inside the callee is private to each instance. *)
let shared_leaf (f : F.t) ~(ivs : leaf list) ~(varying_blocks : I.label list)
    (def_block : (I.reg, I.label) Hashtbl.t) (l : leaf) : bool =
  let fn, r = l in
  if fn <> f.name then false
  else if List.mem l ivs then false
  else if F.param_of_reg f r <> None then true
  else
    match Hashtbl.find_opt def_block r with
    | Some b -> not (List.mem b varying_blocks)
    | None -> false

let compare_pair (f : F.t) ~(ivs : leaf list)
    ~(varying_blocks : I.label list)
    (def_block : (I.reg, I.label) Hashtbl.t) (a1 : access) (a2 : access) :
    verdict =
  match (a1.aform, a2.aform) with
  | None, _ | _, None -> Maybe
  | Some f1, Some f2 ->
    let solid (a : aff) =
      List.for_all
        (fun (l, _) ->
          List.mem l ivs
          || shared_leaf f ~ivs ~varying_blocks def_block l)
        a.coeffs
    in
    if not (solid f1 && solid f2) then Maybe
    else begin
      (* shared leaves must agree coefficient-wise to cancel *)
      let coeff (a : aff) l =
        Option.value ~default:0 (List.assoc_opt l a.coeffs)
      in
      let leaves =
        List.sort_uniq compare
          (List.map fst f1.coeffs @ List.map fst f2.coeffs)
      in
      let shared_mismatch =
        List.exists
          (fun l -> (not (List.mem l ivs)) && coeff f1 l <> coeff f2 l)
          leaves
      in
      if shared_mismatch then Maybe
      else begin
        let iv_terms =
          List.filter_map
            (fun l ->
              if List.mem l ivs then
                let c1 = coeff f1 l and c2 = coeff f2 l in
                if c1 = 0 && c2 = 0 then None else Some (l, c1, c2)
              else None)
            leaves
        in
        let delta = f1.konst - f2.konst in
        match iv_terms with
        | [] ->
          (* no induction dependence: same address every pair of
             iterations, or a constant separation *)
          if delta = 0 then Definite else Safe
        | [ (_, c1, c2) ] when c1 = c2 && List.length ivs = 1 ->
          (* one distinguishing iv: collision needs c·Δ = -δ with
             Δ ≠ 0 *)
          if delta = 0 || delta mod c1 <> 0 then Safe else Maybe
        | _ -> Maybe
      end
    end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let spaces_may_overlap (a : access) (b : access) =
  match (a.aspace, b.aspace) with
  | Some g1, Some g2 -> g1 = g2
  | _ -> true

let space_name = function Some g -> "@" ^ g | None -> "memory"

let check_func (p : P.t) ~touch (f : F.t) : Diag.t list =
  let caller_env = affine_env f in
  let def_block : (I.reg, I.label) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (b : F.block) ->
      List.iter
        (fun (i : I.t) -> Hashtbl.replace def_block i.id b.label)
        b.instrs)
    f.blocks;
  let sites =
    List.concat_map
      (fun (b : F.block) ->
        List.filter_map
          (fun (i : I.t) ->
            match i.kind with
            | I.Spawn { callee; args } ->
              Some { sblock = b.label; sinstr = i; scallee = callee;
                     sargs = args }
            | _ -> None)
          b.instrs)
      f.blocks
  in
  if sites = [] then []
  else begin
    let summaries =
      List.map
        (fun s ->
          (s, spawn_summary p ~touch ~caller_env f s.scallee s.sargs))
        sites
    in
    let regions = List.map (fun s -> (s, sync_free_region f s)) sites in
    let diags = ref [] in
    let report s1 s2 verdict (a1 : access) (a2 : access) =
      let sp =
        match (a1.aspace, a2.aspace) with
        | Some g, _ | _, Some g -> Some g
        | _ -> None
      in
      let what =
        if a1.awrite && a2.awrite then "write" else "read and write"
      in
      match verdict with
      | Safe -> ()
      | Definite ->
        diags :=
          Diag.error ~code:"race" ~where:f.name
            "provable race: concurrent tasks spawned at bb%d (@%s)%s %s \
             the same address in %s on every pair of iterations"
            s1.sblock s1.scallee
            (if s1.sinstr == s2.sinstr then ""
             else Fmt.str " and bb%d (@%s)" s2.sblock s2.scallee)
            what (space_name sp)
          :: !diags
      | Maybe ->
        diags :=
          Diag.warning ~code:"race" ~where:f.name
            "tasks spawned at bb%d (@%s)%s may both %s %s without an \
             intervening sync; independence is not provable"
            s1.sblock s1.scallee
            (if s1.sinstr == s2.sinstr then ""
             else Fmt.str " and bb%d (@%s)" s2.sblock s2.scallee)
            what (space_name sp)
          :: !diags
    in
    let compare_sites (s1, sum1) (s2, sum2) ~ivs ~varying_blocks =
      List.iter
        (fun a1 ->
          List.iter
            (fun a2 ->
              if (a1.awrite || a2.awrite) && spaces_may_overlap a1 a2 then
                report s1 s2
                  (compare_pair f ~ivs ~varying_blocks def_block a1 a2)
                  a1 a2)
            sum2)
        sum1
    in
    (* self pairs: a site its own loop can re-dispatch concurrently *)
    List.iter
      (fun ((s : site), (hits, term_free)) ->
        if Hashtbl.mem hits s.sinstr.id then begin
          let ivs, varying_blocks = varying_ivs f s term_free in
          let sum = List.assq s summaries in
          compare_sites (s, sum) (s, sum) ~ivs ~varying_blocks
        end)
      regions;
    (* cross pairs: two distinct sites, either order sync-free *)
    List.iteri
      (fun i ((s1 : site), (hits1, _)) ->
        List.iteri
          (fun j ((s2 : site), (hits2, _)) ->
            if i < j
               && (Hashtbl.mem hits1 s2.sinstr.id
                  || Hashtbl.mem hits2 s1.sinstr.id)
            then begin
              let sum1 = List.assq s1 summaries in
              let sum2 = List.assq s2 summaries in
              (* no distinguishing ivs across sites: both instances
                 can come from the same iteration *)
              let varying_blocks =
                List.concat_map
                  (fun (lp : F.loop_info) ->
                    if List.mem s1.sblock lp.body
                       || List.mem s2.sblock lp.body
                    then lp.body
                    else [])
                  f.loops
              in
              compare_sites (s1, sum1) (s2, sum2) ~ivs:[] ~varying_blocks
            end)
          regions)
      regions;
    Diag.dedup (List.rev !diags)
  end

let check (p : P.t) : Diag.t list =
  let touch = touch_sets p in
  Diag.dedup (List.concat_map (check_func p ~touch) p.funcs)
