(** Natural-loop detection, used to cross-check the loop metadata the
    structured front-end records on each function. *)

type natural_loop = {
  header : Instr.label;
  latches : Instr.label list;
  blocks : Instr.label list;
}

(** Find natural loops from back edges [latch -> header] where the
    header dominates the latch. *)
let analyze (f : Func.t) : natural_loop list =
  let dom = Dom.compute f in
  let back_edges =
    List.concat_map
      (fun (b : Func.block) ->
        List.filter_map
          (fun s -> if Dom.dominates dom s b.label then Some (b.label, s) else None)
          (Func.successors b))
      f.blocks
  in
  let preds = Func.predecessors f in
  let loop_of (latch, header) =
    let in_loop = Hashtbl.create 8 in
    Hashtbl.replace in_loop header ();
    let rec walk l =
      if not (Hashtbl.mem in_loop l) then begin
        Hashtbl.replace in_loop l ();
        List.iter walk (try Hashtbl.find preds l with Not_found -> [])
      end
    in
    walk latch;
    { header; latches = [ latch ];
      blocks = Hashtbl.fold (fun l () acc -> l :: acc) in_loop [] }
  in
  (* Merge loops sharing a header. *)
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let lp = loop_of e in
      match Hashtbl.find_opt by_header lp.header with
      | None -> Hashtbl.replace by_header lp.header lp
      | Some prev ->
        Hashtbl.replace by_header lp.header
          { prev with
            latches = prev.latches @ lp.latches;
            blocks =
              List.sort_uniq compare (prev.blocks @ lp.blocks) })
    back_edges;
  Hashtbl.fold (fun _ lp acc -> lp :: acc) by_header []
  |> List.sort (fun a b -> compare a.header b.header)

(* ------------------------------------------------------------------ *)
(* Inductions and trip counts                                          *)

(* [Some s] when register [r] of [f] is [x + s], [s + x] or [x - s]
   for a constant [s]. *)
let offset_from (f : Func.t) (x : Instr.reg) (r : Instr.reg) : int option =
  match Func.find_instr f r with
  | Some { kind = Bin (Add, Reg y, CInt s) | Bin (Add, CInt s, Reg y); _ }
    when y = x -> Some (Int64.to_int s)
  | Some { kind = Bin (Sub, Reg y, CInt s); _ } when y = x ->
    Some (- Int64.to_int s)
  | _ -> None

let inductions (f : Func.t) (lp : Func.loop_info) : (Instr.reg * int) list =
  List.filter_map
    (fun (i : Instr.t) ->
      match i.kind with
      | Phi ins -> (
        match List.assoc_opt lp.latch ins with
        | Some (Reg back) -> (
          match offset_from f i.id back with
          | Some s when s <> 0 -> Some (i.id, s)
          | _ -> None)
        | _ -> None)
      | _ -> None)
    (Func.block f lp.header).instrs

(** Statically-known trip count of [lp]: the number of body
    executions, for the common counted shape

    {v  header:  %i = phi [preheader: C_init] [latch: %i']
                 br (icmp op %iv, C_n), ...   ;; one arm exits
        ...      %i' = add/sub %i, C_step  v}

    where [%i] is one of {!inductions}.

    The recurrence is {e iterated numerically} (Int64, budgeted) from
    the constant initial value rather than solved in closed form, so
    every icmp/step-sign combination — including overflow-free
    non-termination — is decided uniformly; loops that would run past
    [budget] iterations (default 1,000,000) are reported unknown.

    Requirements checked before trusting the recurrence: the loop has
    a single exit edge (header → [lp.exit]; every non-header body
    block branches only within the body), the compared register is
    the induction phi itself (or its header-resident increment,
    evaluated one step ahead), and init/step/limit are integer
    constants.  Anything else returns [None] — the analysis's callers
    treat unknown as "no static bound", never as zero. *)
let trip_count ?(budget = 1_000_000) (f : Func.t) (lp : Func.loop_info) :
    int option =
  let open Instr in
  let ( let* ) = Option.bind in
  let* header =
    List.find_opt (fun (b : Func.block) -> b.label = lp.header) f.blocks
  in
  (* Single-exit shape: only the header may leave the body. *)
  let body_ok =
    List.for_all
      (fun (b : Func.block) ->
        (not (List.mem b.label lp.body))
        || b.label = lp.header
        || List.for_all (fun s -> List.mem s lp.body) (Func.successors b))
      f.blocks
  in
  let* () = if body_ok then Some () else None in
  let* cond, t_tgt, f_tgt =
    match header.term with
    | CondBr (c, t, fl) -> Some (c, t, fl)
    | _ -> None
  in
  let exits_then = t_tgt = lp.exit and exits_else = f_tgt = lp.exit in
  let* () = if exits_then <> exits_else then Some () else None in
  let* cond_reg = op_reg cond in
  let* cmp = Func.find_instr f cond_reg in
  let* op, lhs, rhs =
    match cmp.kind with
    | Icmp (op, a, b) -> Some (op, a, b)
    | _ -> None
  in
  (* One side a constant, the other the induction value. *)
  let* iv_opnd, limit, iv_on_left =
    match (lhs, rhs) with
    | Reg r, CInt k -> Some (r, k, true)
    | CInt k, Reg r -> Some (r, k, false)
    | _ -> None
  in
  (* Resolve the induction: the compared register is one, or a
     header-resident offset of one (compared one step ahead). *)
  let ivs = inductions f lp in
  let* phi_reg, step_cmp =
    if List.mem_assoc iv_opnd ivs then Some (iv_opnd, 0)
    else if List.exists (fun (j : t) -> j.id = iv_opnd) header.instrs then
      List.find_map
        (fun (phi, _) ->
          Option.map (fun k -> (phi, k)) (offset_from f phi iv_opnd))
        ivs
    else None
  in
  let step = Int64.of_int (List.assoc phi_reg ivs)
  and step_cmp = Int64.of_int step_cmp in
  let* init =
    match Func.find_instr f phi_reg with
    | Some { kind = Phi ins; _ } -> (
      match List.assoc_opt lp.preheader ins with
      | Some (CInt v) -> Some v
      | _ -> None)
    | _ -> None
  in
  let eval op a b =
    let c = Int64.compare a b in
    match op with
    | Eq -> c = 0 | Ne -> c <> 0 | Slt -> c < 0
    | Sle -> c <= 0 | Sgt -> c > 0 | Sge -> c >= 0
  in
  let rec iterate (x : int64) (trips : int) : int option =
    if trips > budget then None
    else begin
      let v = Int64.add x step_cmp in
      let taken =
        if iv_on_left then eval op v limit else eval op limit v
      in
      let target = if taken then t_tgt else f_tgt in
      if target = lp.exit then Some trips
      else iterate (Int64.add x step) (trips + 1)
    end
  in
  iterate init 0

(** Check that the recorded metadata matches the CFG-derived loops:
    same headers, each recorded body a superset of the natural body,
    and each latch is a recorded latch.  Returns an error description
    on mismatch. *)
let check_metadata (f : Func.t) : (unit, string) result =
  let natural = analyze f in
  let recorded = f.loops in
  let nat_headers = List.map (fun l -> l.header) natural in
  let rec_headers =
    List.map (fun (l : Func.loop_info) -> l.header) recorded
  in
  if List.sort compare nat_headers <> List.sort compare rec_headers then
    Error
      (Fmt.str "loop headers differ in %s: cfg=%a recorded=%a" f.name
         Fmt.(Dump.list int) nat_headers
         Fmt.(Dump.list int) rec_headers)
  else
    List.fold_left
      (fun acc (nl : natural_loop) ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
          match
            List.find_opt
              (fun (l : Func.loop_info) -> l.header = nl.header)
              recorded
          with
          | None -> Error (Fmt.str "no metadata for loop bb%d" nl.header)
          | Some meta ->
            if not (List.for_all (fun b -> List.mem b meta.body) nl.blocks)
            then
              Error
                (Fmt.str "loop bb%d: metadata body misses cfg blocks"
                   nl.header)
            else if not (List.mem meta.latch nl.latches) then
              Error (Fmt.str "loop bb%d: latch mismatch" nl.header)
            else Ok ()))
      (Ok ()) natural
