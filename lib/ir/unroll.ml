(** Behaviour-level loop unrolling.

    The paper's front-end leans on software transformations — "we
    would like to leverage software transformations such as loop
    unrolling to expose more opportunity for hardware transformations"
    (§2.2) — because each unrolled copy of a loop body becomes an
    independent slice of dataflow in the μIR graph (more function
    units in flight per iteration).

    This implements full unrolling of innermost loops with
    straight-line bodies and a static trip count of at most
    [max_trip].  The trip count is {!Loops.trip_count}'s, the one the
    timing analysis uses: a constant-init induction variable stepped
    up or down by a constant and compared against a constant with any
    comparison ([<], [<=], [>], [>=], [==], [!=]).

    The loop's blocks are replaced by [trip] renamed copies of the
    body/latch instructions chained in the preheader's stead; header
    phis become direct operand substitutions.  Loops with conditional
    control flow, calls, spawns, or non-constant bounds are left
    alone. *)

open Instr

(** Header phis as (reg, init operand, latch operand). *)
let carried_phis (f : Func.t) (lp : Func.loop_info) :
    (reg * operand * operand) list =
  List.filter_map
    (fun (i : Instr.t) ->
      match i.kind with
      | Phi incoming -> (
        match
          ( List.assoc_opt lp.preheader incoming,
            List.assoc_opt lp.latch incoming )
        with
        | Some init, Some next -> Some (i.id, init, next)
        | _ -> None)
      | _ -> None)
    (Func.block f lp.header).instrs

(** The loop is unrollable when its body is pure straight-line code:
    header + one body block + latch, no calls/spawns/syncs, and no
    inner loops. *)
let unrollable (f : Func.t) (lp : Func.loop_info) : bool =
  let inner =
    List.exists
      (fun (l : Func.loop_info) ->
        l.header <> lp.header && List.mem l.header lp.body)
      f.loops
  in
  (not inner)
  && List.length lp.body <= 3
  && List.for_all
       (fun l ->
         let b = Func.block f l in
         List.for_all
           (fun (i : Instr.t) ->
             match i.kind with
             | Call _ | Spawn _ | Sync -> false
             | Phi _ -> l = lp.header
             | _ -> true)
           b.instrs)
       lp.body

(** Fully unroll one loop; returns true on success.  Counting a loop
    iterates its recurrence, so the shape test comes first and the
    count stops past [max_trip]: {!unroll_func} re-tries every loop
    that stays rolled after each success. *)
let unroll_loop (f : Func.t) (lp : Func.loop_info) ~(max_trip : int) : bool =
  match
    if unrollable f lp then Loops.trip_count ~budget:max_trip f lp else None
  with
  | Some trip ->
    let header = Func.block f lp.header in
    let body_labels =
      List.filter (fun l -> l <> lp.header) lp.body
    in
    (* instructions of one iteration, in execution order *)
    let iteration_instrs =
      List.filter
        (fun (i : Instr.t) ->
          match i.kind with Phi _ -> false | _ -> true)
        header.instrs
      @ List.concat_map (fun l -> (Func.block f l).instrs) body_labels
    in
    let carried = carried_phis f lp in
    if carried = [] then invalid_arg "unroll: no carried phis";
    (* Emit [trip] renamed copies into a straight line. *)
    let out_instrs = ref [] in
    let cur =
      Array.of_list (List.map (fun (_, init, _) -> init) carried)
    in
    let fresh () =
      let r = f.next_reg in
      f.next_reg <- r + 1;
      r
    in
    for _ = 1 to trip do
      let rename : (reg, operand) Hashtbl.t = Hashtbl.create 16 in
      List.iteri
        (fun k (r, _, _) -> Hashtbl.replace rename r cur.(k))
        carried;
      List.iter
        (fun (i : Instr.t) ->
          let id = fresh () in
          Hashtbl.replace rename i.id (Reg id);
          let copy = map_operands (subst rename) i in
          out_instrs := { copy with id } :: !out_instrs)
        iteration_instrs;
      (* carried values feeding the following copy *)
      List.iteri (fun k (_, _, next_op) -> cur.(k) <- subst rename next_op)
        carried
    done;
    (* Uses of the header phis after the loop see the final carried
       values: rewrite them throughout the function. *)
    let final : (reg, operand) Hashtbl.t = Hashtbl.create 4 in
    List.iteri (fun k (r, _, _) -> Hashtbl.replace final r cur.(k)) carried;
    List.iter
      (fun (b : Func.block) ->
        if not (List.mem b.label lp.body) then begin
          b.instrs <- List.map (map_operands (subst final)) b.instrs;
          b.term <- map_term (subst final) b.term
        end)
      f.blocks;
    (* Splice: the header block becomes the unrolled straight-line
       code, jumping to the exit; other loop blocks are dropped. *)
    header.instrs <- List.rev !out_instrs;
    header.term <- Br lp.exit;
    f.blocks <-
      List.filter
        (fun (b : Func.block) ->
          b.label = lp.header || not (List.mem b.label body_labels))
        f.blocks;
    f.loops <-
      List.filter_map
        (fun (l : Func.loop_info) ->
          if l.header = lp.header then None
          else
            (* scrub the deleted blocks from enclosing loops' bodies *)
            Some
              { l with
                body =
                  List.filter
                    (fun b -> not (List.mem b body_labels))
                    l.body })
        f.loops;
    true
  | _ -> false

(** Unroll every eligible innermost loop of [f]; returns how many. *)
let unroll_func ?(max_trip = 16) (f : Func.t) : int =
  let n = ref 0 in
  let rec go () =
    let candidate =
      List.find_opt (fun lp -> unroll_loop f lp ~max_trip) f.loops
    in
    match candidate with
    | Some _ ->
      incr n;
      go ()
    | None -> ()
  in
  go ();
  !n

(** Unroll across the whole program (then re-run the cleanups, since
    unrolled bodies are constant-folding fodder). *)
let unroll ?(max_trip = 16) (p : Program.t) : int =
  let n =
    List.fold_left (fun acc f -> acc + unroll_func ~max_trip f) 0 p.funcs
  in
  if n > 0 then ignore (Transform.optimize p);
  n
