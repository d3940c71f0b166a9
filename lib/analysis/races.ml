(** Parallel race detection on the compiler IR.

    TAPIR-style [spawn] makes the child task run concurrently with the
    continuation until the next [sync]; [parallel_for] lowers to a
    spawn per iteration.  Two sibling tasks — spawns mutually
    reachable without crossing a sync — therefore run unordered, and
    a pair of accesses to the same location with at least one write is
    a race.

    We summarise what each spawn may touch with {!Muir_ir.Access}, the
    access analysis μIR construction shares: every address is
    [global + Σ cᵢ·leafᵢ + k] where leaves are registers the expansion
    cannot see through (parameters, phis, load results).  Spawn
    arguments are substituted into the callee's summary, so a
    [parallel_for] body indexed by the loop variable shows up in the
    caller as an affine function of the loop's induction
    ({!Muir_ir.Loops.inductions}), the variable that distinguishes
    sibling iterations.
    Independence is then arithmetic:

    - forms that differ by a nonzero constant never collide;
    - when exactly one loop re-dispatches the spawn and it has
      exactly one induction, forms with one equal nonzero coefficient
      [c] on that induction collide only when the iteration distance
      hits [-δ/c], impossible when [δ = 0] or [c ∤ δ];
    - equal forms with no induction dependence collide on every pair
      of iterations — a provable race, reported as an error;
    - anything the analysis cannot see through (distinct arrays
      aside) is reported as a may-race warning. *)

module I = Muir_ir.Instr
module F = Muir_ir.Func
module P = Muir_ir.Program
module A = Muir_ir.Affine
module Access = Muir_ir.Access

type leaf = Access.leaf
type aff = Access.form
type access = Access.access

(* ------------------------------------------------------------------ *)
(* Access summaries                                                    *)

(** What one spawn site may touch, phrased in the caller's leaf space:
    the callee's direct accesses with parameters substituted by the
    actual arguments' forms, plus whole-space entries for everything
    deeper calls may reach. *)
let spawn_summary (p : P.t) (an : Access.t) (caller : F.t)
    (callee_name : string) (args : I.operand list) : access list =
  if not (P.has_func p callee_name) then []
  else begin
    let g = P.find_func p callee_name in
    let subst : (leaf * aff) list =
      List.concat
        (List.mapi
           (fun i (prm : F.param) ->
             match List.nth_opt args i with
             | None -> []
             | Some op ->
               match Access.form an caller.name op with
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
          match a.form with
          | None -> a
          | Some fm -> (
            match subst_form fm with
            | None -> { a with form = None }
            | Some fm' ->
              { a with
                space =
                  (match fm'.base with Some g -> Some g | None -> a.space);
                form = Some fm' }))
        (Access.accesses an g)
    in
    let deeper =
      F.fold_instrs
        (fun acc (i : I.t) ->
          match i.kind with
          | I.Call { callee; _ } | I.Spawn { callee; _ } ->
            List.map
              (fun (space, write) -> { Access.space; write; form = None })
              (Access.footprint an ~spawns:true callee)
            @ acc
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

(** Inductions of the loops that can re-dispatch [s] without an
    intervening sync — the registers whose values distinguish two
    concurrent instances of the same spawn site — and those loops'
    blocks.  Another header phi may hold one value in two iterations,
    so it distinguishes nothing.  The third result is the one
    variable that alone tells every pair of instances apart: the
    induction of the only such loop, when it has exactly one.  With
    two loops, instances from two iterations of one can share the
    other's value. *)
let varying_ivs (f : F.t) (s : site) (term_free : (I.label, unit) Hashtbl.t)
    : leaf list * I.label list * leaf option =
  let lps =
    List.filter
      (fun (lp : F.loop_info) ->
        List.mem s.sblock lp.body && Hashtbl.mem term_free lp.latch)
      f.loops
  in
  let ivs_of (lp : F.loop_info) =
    List.map
      (fun (r, _) -> ((f.name, r) : leaf))
      (Muir_ir.Loops.inductions f lp)
  in
  let ivs = List.concat_map ivs_of lps in
  let bodies = List.concat_map (fun (lp : F.loop_info) -> lp.body) lps in
  let key =
    match lps with
    | [ lp ] -> (match ivs_of lp with [ v ] -> Some v | _ -> None)
    | _ -> None
  in
  (List.sort_uniq compare ivs, List.sort_uniq compare bodies, key)

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

let compare_pair (f : F.t) ~(ivs : leaf list) ~(key : leaf option)
    ~(varying_blocks : I.label list)
    (def_block : (I.reg, I.label) Hashtbl.t) (a1 : access) (a2 : access) :
    verdict =
  match (a1.form, a2.form) with
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
        | [ (l, c1, c2) ] when c1 = c2 && key = Some l ->
          (* the one distinguishing iv: collision needs c·Δ = -δ
             with Δ ≠ 0 *)
          if delta = 0 || delta mod c1 <> 0 then Safe else Maybe
        | _ -> Maybe
      end
    end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let spaces_may_overlap (a : access) (b : access) =
  match (a.space, b.space) with
  | Some g1, Some g2 -> g1 = g2
  | _ -> true

let space_name = function Some g -> "@" ^ g | None -> "memory"

let check_func (p : P.t) (an : Access.t) (f : F.t) : Diag.t list =
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
          (s, spawn_summary p an f s.scallee s.sargs))
        sites
    in
    let regions = List.map (fun s -> (s, sync_free_region f s)) sites in
    let diags = ref [] in
    let report s1 s2 verdict (a1 : access) (a2 : access) =
      let sp =
        match (a1.space, a2.space) with
        | Some g, _ | _, Some g -> Some g
        | _ -> None
      in
      let what =
        if a1.write && a2.write then "write" else "read and write"
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
    let compare_sites (s1, sum1) (s2, sum2) ~ivs ~key ~varying_blocks =
      List.iter
        (fun (a1 : access) ->
          List.iter
            (fun (a2 : access) ->
              if (a1.write || a2.write) && spaces_may_overlap a1 a2 then
                report s1 s2
                  (compare_pair f ~ivs ~key ~varying_blocks def_block a1 a2)
                  a1 a2)
            sum2)
        sum1
    in
    (* self pairs: a site its own loop can re-dispatch concurrently *)
    List.iter
      (fun ((s : site), (hits, term_free)) ->
        if Hashtbl.mem hits s.sinstr.id then begin
          let ivs, varying_blocks, key = varying_ivs f s term_free in
          let sum = List.assq s summaries in
          compare_sites (s, sum) (s, sum) ~ivs ~key ~varying_blocks
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
              compare_sites (s1, sum1) (s2, sum2) ~ivs:[] ~key:None
                ~varying_blocks
            end)
          regions)
      regions;
    Diag.dedup (List.rev !diags)
  end

let check (p : P.t) : Diag.t list =
  let an = Access.of_program p in
  Diag.dedup (List.concat_map (check_func p an) p.funcs)
