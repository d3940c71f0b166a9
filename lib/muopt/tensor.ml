(** Tensor higher-order ops (§6.3).

    The baseline lowers tile operations onto shared scalar function
    units (time-multiplexed) and moves tiles word-by-word through the
    junction.  This pass:

    - swaps every tile compute node to the dedicated reduction-tree
      unit of Fig. 14 (fully pipelined, II = 1);
    - gives the arrays accessed with tile loads/stores type-specific
      scratchpads whose width matches the tile, so a whole tile row
      moves per access ("the operand networks are all widened to
      implicitly transfer all the elements of the Tensor2D at one
      time");
    - widens the junctions of tasks containing tensor memory ops. *)

module G = Muir_core.Graph
module P = Muir_ir.Program

(** Words in a tile row: the width of every tensor scratchpad. *)
let tile_words = 4

let run (c : G.circuit) : Pass.report =
  let nodes = ref 0 and edges = ref 0 in
  (* 1. dedicated tensor function units *)
  G.iter_tasks
    (fun t ->
      List.iter
        (fun (n : G.node) ->
          match n.kind with
          | G.Tcompute { top; dedicated = false } ->
            n.kind <- G.Tcompute { top; dedicated = true };
            incr nodes
          | _ -> ())
        t.nodes)
    c;
  (* 2. wide, type-specific scratchpads for tensor-accessed spaces *)
  let tensor_spaces = ref [] in
  G.iter_tasks
    (fun t ->
      List.iter
        (fun (n : G.node) ->
          match n.kind with
          | G.Tload { space; _ } | G.Tstore { space; _ } ->
            if space <> 0 && not (List.mem space !tensor_spaces) then
              tensor_spaces := space :: !tensor_spaces
          | _ -> ())
        t.nodes)
    c;
  List.iter
    (fun sp ->
      let s = G.structure_of_space c sp in
      match s.shape with
      | G.Scratchpad p when p.width_words >= tile_words -> ()
      | G.Scratchpad p ->
        p.width_words <- tile_words;
        incr nodes
      | G.Cache _ ->
        let gname =
          match
            List.find_opt (fun (g : P.global) -> g.gspace = sp)
              c.prog.globals
          with
          | Some g -> g.gname
          | None -> string_of_int sp
        in
        let s =
          G.add_structure c ~sname:(Fmt.str "tspad_%s" gname)
            (G.Scratchpad
               { banks = 2; ports_per_bank = 1; latency = 2;
                 width_words = tile_words; wb_buffer = false })
        in
        G.bind_space c sp s.sid;
        incr nodes;
        edges := !edges + 2)
    !tensor_spaces;
  (* 3. widen junctions of tensor tasks *)
  G.iter_tasks
    (fun t ->
      let has_tensor_mem =
        List.exists
          (fun (n : G.node) ->
            match n.kind with
            | G.Tload _ | G.Tstore _ -> true
            | _ -> false)
          t.nodes
      in
      if has_tensor_mem then begin
        G.set_junction_width c t.tid
          (max (G.junction_width c t.tid) 2);
        incr edges
      end)
    c;
  Pass.report "tensor-ops" ~nodes:!nodes ~edges:!edges
    ~detail:
      (Fmt.str "%d components specialized, %d tensor spaces" !nodes
         (List.length !tensor_spaces))

let pass : Pass.t = { pname = "tensor-ops"; prun = (fun c -> run c) }
