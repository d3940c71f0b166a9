(** The design-space explorer: enumerate μopt configurations
    ({!Config.t}), evaluate each one with the cycle-level simulator
    (performance) and the synthesis models (cost), and report the
    cycles-vs-area Pareto frontier.

    Each configuration goes through {!Eval}, the evaluation the serve
    daemon also uses, on a {!Pool} of domains.  Configurations that
    build the same optimized circuit share one simulation through the
    {!Eval.memo}, which only the coordinating domain fills, and the
    pool merges results by input index, so the output is identical for
    every [--jobs] value.

    Two search strategies:
    - {e grid} — exhaustive sweep of a finite space (the default space
      covers every registry stack × tiles × banks × op-fusion on/off,
      and always contains each predefined stack at its own defaults);
    - {e greedy} — counter-guided hill climb: seeds every stack at
      minimal parameters and widens the parameter behind the dominant
      stall ({!Eval.hint}: task-queue stalls → more tiles,
      memory-structure stalls → more banks), with a seeded-LCG
      diversification step that also expands one other frontier point
      per round.

    Either way, a configuration whose modeled FPGA area already
    exceeds [--area-budget] is pruned analytically — the model runs,
    the simulator does not.

    What to explore is a {!Muir_pipeline.Pipeline.source}, and results
    carry its name.  Its thunk runs once per evaluation inside the
    worker domain, so nothing mutable (program memory included) is
    ever shared across domains while a pool map runs. *)

module P = Muir_pipeline.Pipeline
module Stacks = Muir_opt.Stacks

(** The name results are labelled with: the source's circuit name, or
    the builder's default for an unnamed one. *)
let source_name (src : P.source) : string =
  Option.value src.P.src_name ~default:"accelerator"

(* ------------------------------------------------------------------ *)
(* Evaluations                                                          *)

(** How a fresh evaluation ended. *)
type outcome =
  | Simulated      (** its circuit was simulated for it *)
  | Reused         (** an earlier configuration's circuit was the same *)
  | Area_pruned    (** its modeled area exceeds the budget *)
  | Timing_pruned  (** a simulated point dominates its static bound *)

type eval = {
  e_key : string;          (** {!Config.key} *)
  e_cfg : Config.t;
  e_alms : int;            (** FPGA cost (Arria-10-class ALMs) *)
  e_brams : int;
  e_mhz : float;
  e_asic_area : float;     (** ASIC logic area, 10^3 µm² at 28 nm *)
  e_bound : int;           (** static cycle lower bound ({!Muir_analysis.Timing}) *)
  e_cycles : int option;   (** [None] — pruned before simulation *)
  e_us : float option;     (** cycles at the modeled FPGA clock *)
  e_outcome : outcome;
  e_hint : Eval.hint option;
  e_secs : float array;    (** per-stage seconds ({!Muir_pipeline.Pipeline.stage_index});
                               telemetry only — never serialized *)
  e_counts : int array;    (** per-stage invocations, same indexing *)
}

let pruned (e : eval) : bool = e.e_cycles = None

(** Does an already-simulated point [(c0, a0)] make simulating a
    candidate with static cycle bound [>= b] and area [a] pointless?
    Strict domination only: the candidate's true cycles are [>= b], so
    it can neither enter the frontier (some point is no worse on both
    axes and strictly better on one, and wins the [(cycles, alms,
    key)] sort ties) nor become [best].  Exact ties are never pruned —
    the frontier and best stay byte-identical with pruning off. *)
let timing_dominates ~(bound : int) ~(alms : int) ((c0, a0) : int * int) :
    bool =
  (c0 <= bound && a0 < alms) || (c0 < bound && a0 <= alms)

(* ------------------------------------------------------------------ *)
(* Frontier                                                             *)

(** Pareto-minimal evaluations over (cycles, ALMs), sorted by cycles
    ascending / area descending.  Pruned points never qualify. *)
let frontier (evs : eval list) : eval list =
  let pts =
    List.filter_map
      (fun e ->
        match e.e_cycles with Some c -> Some (c, e) | None -> None)
      evs
    |> List.sort (fun (c1, e1) (c2, e2) ->
           compare (c1, e1.e_alms, e1.e_key) (c2, e2.e_alms, e2.e_key))
  in
  let rec sweep best_alms acc = function
    | [] -> List.rev acc
    | (_, e) :: tl ->
      if e.e_alms < best_alms then sweep e.e_alms (e :: acc) tl
      else sweep best_alms acc tl
  in
  sweep max_int [] pts

(** Fastest configuration: min cycles, ties broken by area then key. *)
let best (evs : eval list) : eval option =
  List.fold_left
    (fun acc e ->
      match (e.e_cycles, acc) with
      | None, _ -> acc
      | Some _, None -> Some e
      | Some c, Some b ->
        let bc = Option.get b.e_cycles in
        if compare (c, e.e_alms, e.e_key) (bc, b.e_alms, b.e_key) < 0
        then Some e
        else acc)
    None evs

(* ------------------------------------------------------------------ *)
(* Search spaces                                                        *)

(** The exhaustive grid: every registry stack × the knobs it actually
    reads × op-fusion on/off.  Contains each predefined stack at its
    own default parameters, so the explorer's best can never lose to a
    predefined stack (at equal or lower area) unless the budget
    excludes it. *)
let default_grid () : Config.t list =
  List.concat_map
    (fun (s : Stacks.spec) ->
      let tiles = if s.sp_uses_tiles then [ 1; 2; 4; 8 ] else [ 1 ] in
      let banks = if s.sp_uses_banks then [ 1; 2; 4 ] else [ 1 ] in
      let offs = [ []; [ "op-fusion" ] ] in
      List.concat_map
        (fun t ->
          List.concat_map
            (fun b ->
              List.map
                (fun off -> Config.v ~tiles:t ~banks:b ~off s.sp_name)
                offs)
            banks)
        tiles)
    Stacks.registry

type strategy = Grid | Greedy

let strategy_to_string = function Grid -> "grid" | Greedy -> "greedy"

(* ------------------------------------------------------------------ *)
(* The explorer                                                         *)

type t = {
  x_subject : string;
  x_strategy : strategy;
  x_evals : eval list;     (** unique configurations, evaluation order *)
  x_frontier : eval list;
  x_best : eval option;
  x_fresh_evals : int;     (** configurations evaluated this run *)
  x_fresh_sims : int;      (** ... of which reached the simulator *)
  x_pruned : int;          (** ... of which the area model pruned *)
  x_timing_pruned : int;   (** ... of which the timing bound pruned *)
  x_reused : int;          (** ... of which reused an earlier circuit *)
}

(** Record a run's fresh evaluations, in order, under the
    [muir_dse_*] names of [obs]'s registry: one count per evaluation
    and per outcome, and its whole and per-stage seconds. *)
let observe (obs : Muir_obs.Obs.t) (evs : eval list) : unit =
  let module M = Muir_obs.Metrics in
  let r = obs.Muir_obs.Obs.o_metrics in
  let pruned kind =
    M.counter r ~help:"Fresh evaluations pruned before simulation."
      ~labels:[ ("kind", kind) ] "muir_dse_pruned_total"
  in
  let evals =
    M.counter r ~help:"Fresh configuration evaluations."
      "muir_dse_evals_total"
  and sims =
    M.counter r ~help:"Fresh evaluations that reached the simulator."
      "muir_dse_sims_total"
  and reused =
    M.counter r
      ~help:"Fresh evaluations that reused an earlier identical circuit."
      "muir_dse_reused_total"
  and area = pruned "area"
  and timing = pruned "timing"
  and secs =
    M.histogram r ~help:"Whole-evaluation seconds (fresh only)."
      "muir_dse_eval_seconds"
  and stage =
    Array.of_list
      (List.map
         (fun st ->
           M.histogram r ~help:"Per-stage seconds of fresh evaluations."
             ~labels:[ ("stage", P.stage_name st) ]
             "muir_dse_stage_seconds")
         P.stages)
  in
  List.iter
    (fun e ->
      M.inc evals;
      M.inc
        (match e.e_outcome with
        | Simulated -> sims
        | Reused -> reused
        | Area_pruned -> area
        | Timing_pruned -> timing);
      M.observe secs (Array.fold_left ( +. ) 0.0 e.e_secs);
      Array.iteri
        (fun i n -> if n > 0 then M.observe stage.(i) e.e_secs.(i))
        e.e_counts)
    evs

let rec split_at n = function
  | [] -> ([], [])
  | l when n <= 0 -> ([], l)
  | x :: tl ->
    let a, b = split_at (n - 1) tl in
    (x :: a, b)

(* Deterministic diversification for the greedy search: a 63-bit LCG
   (Knuth-style constants), never the global Random state. *)
let lcg (s : int) : int =
  ((s * 0x2545F4914F6CDD1D) + 0x9E3779B9) land max_int

let run ?(strategy = Grid) ?(jobs = 1) ?(budget_evals = 96) ?area_budget
    ?(timing_prune = false) ?(seed = 0) ?(memo = Eval.memo ()) ?grid ?obs
    (src : P.source) : t =
  let now = Option.map (fun o () -> Muir_obs.Obs.now o) obs in
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  let remaining () = budget_evals - Hashtbl.length seen in
  (* One chunk: prepare each configuration on the pool; prune in chunk
     order from the model and the static bound alone; simulate the
     first surviving configuration of each circuit the memo does not
     hold; every other survivor reuses its circuit's entry. *)
  let eval_chunk (chunk : Config.t list) : unit =
    let dominators =
      if not timing_prune then []
      else
        List.filter_map
          (fun e -> Option.map (fun c -> (c, e.e_alms)) e.e_cycles)
          (frontier (List.rev !order))
    in
    let chosen = Hashtbl.create 8 in
    let judged =
      List.map
        (fun ((p : Eval.prepared), bound) ->
          let alms = (fst (Eval.cost p)).fr_alms in
          let outcome =
            if match area_budget with Some b -> alms > b | None -> false
            then Area_pruned
            else if List.exists (timing_dominates ~bound ~alms) dominators
            then Timing_pruned
            else
              match p.pr_step with
              | Modeled _ when not (Hashtbl.mem chosen p.pr_digest) ->
                Hashtbl.add chosen p.pr_digest ();
                Simulated
              | _ -> Reused
          in
          (p, bound, outcome))
        (Pool.map ~jobs
           (fun cfg ->
             let p = Eval.prepare ~ctl:(P.ctl ?now ()) ~memo src cfg in
             (p, Muir_analysis.Timing.bound_cycles p.pr_built.p_circuit))
           chunk)
    in
    let reps =
      List.filter_map
        (fun (p, _, o) -> if o = Simulated then Some p else None)
        judged
    in
    List.iter2
      (fun (p : Eval.prepared) -> Eval.add memo p.pr_digest)
      reps
      (Pool.map ~jobs Eval.finish reps);
    List.iter
      (fun ((p : Eval.prepared), bound, outcome) ->
        let f, a = Eval.cost p in
        let cfg = p.pr_cfg in
        let entry =
          match outcome with
          | Simulated | Reused -> Some (Hashtbl.find memo p.pr_digest)
          | Area_pruned | Timing_pruned -> None
        in
        let cycles = Option.map (fun (e : Eval.entry) -> e.en_cycles) entry in
        (* The analysis's soundness contract, enforced on every
           evaluation that has cycles, not only in tests. *)
        Option.iter
          (fun c ->
            if bound > c then
              invalid_arg
                (Fmt.str
                   "timing unsound on %s (%s): static bound %d > measured \
                    %d cycles"
                   (source_name src) (Config.label cfg) bound c))
          cycles;
        let ev =
          { e_key = Config.key cfg; e_cfg = cfg; e_alms = f.fr_alms;
            e_brams = f.fr_brams; e_mhz = f.fr_mhz; e_asic_area = a.ar_area;
            e_bound = bound; e_cycles = cycles;
            e_us = Option.map (fun c -> float_of_int c /. f.fr_mhz) cycles;
            e_outcome = outcome;
            e_hint = Option.bind entry (fun e -> e.en_hint);
            e_secs = p.pr_ctl.stage_seconds;
            e_counts = p.pr_ctl.stage_counts }
        in
        Hashtbl.add seen ev.e_key ();
        order := ev :: !order)
      judged
  in
  (* Evaluate a batch: its unseen configurations, one per key, within
     the budget, in fixed-size chunks, so the timing filter sees the
     same incumbent frontier whatever [--jobs] is. *)
  let eval_batch (cfgs : Config.t list) : unit =
    let keys = Hashtbl.create 16 in
    let fresh =
      List.filter
        (fun cfg ->
          let k = Config.key cfg in
          if Hashtbl.mem keys k || Hashtbl.mem seen k then false
          else begin
            Hashtbl.add keys k ();
            true
          end)
        cfgs
    in
    let rec by_chunk = function
      | [] -> ()
      | todo ->
        let chunk, rest = split_at 8 todo in
        eval_chunk chunk;
        by_chunk rest
    in
    by_chunk (List.filteri (fun i _ -> i < remaining ()) fresh)
  in
  (match (strategy, grid) with
  | Grid, g ->
    let space = match g with Some g -> g | None -> default_grid () in
    eval_batch space
  | Greedy, _ ->
    (* Seed: every stack at minimal parameters. *)
    let seeds =
      List.map (fun (s : Stacks.spec) -> Config.v s.sp_name) Stacks.registry
    in
    eval_batch seeds;
    let rand = ref (lcg (seed + 1)) in
    let unseen cfg = not (Hashtbl.mem seen (Config.key cfg)) in
    (* Neighbors of a point, hint-directed widening first. *)
    let expand (ev : eval) : Config.t list =
      let s = Config.spec ev.e_cfg in
      let cfg = ev.e_cfg in
      let wider_tiles =
        if s.sp_uses_tiles && cfg.tiles < 16 then
          [ { cfg with tiles = cfg.tiles * 2 } ]
        else []
      and wider_banks =
        if s.sp_uses_banks && cfg.banks < 8 then
          [ { cfg with banks = cfg.banks * 2 } ]
        else []
      and toggle =
        if List.mem "op-fusion" cfg.off then
          [ { cfg with off = List.filter (( <> ) "op-fusion") cfg.off } ]
        else [ { cfg with off = "op-fusion" :: cfg.off } ]
      in
      match ev.e_hint with
      | Some Widen_banks -> wider_banks @ wider_tiles @ toggle
      | Some Widen_tiles | None -> wider_tiles @ wider_banks @ toggle
    in
    let continue_ = ref true in
    while !continue_ && remaining () > 0 do
      let evs = List.rev !order in
      let front = frontier evs in
      let proposals =
        (match best evs with Some b -> expand b | None -> [])
        @ (match front with
          | [] -> []
          | _ ->
            rand := lcg !rand;
            let i = abs !rand mod List.length front in
            expand (List.nth front i))
      in
      let proposals = List.filter unseen proposals in
      (* Exhausted the neighborhood of the best: widen the search to
         every point evaluated so far before giving up. *)
      let proposals =
        if proposals <> [] then proposals
        else List.filter unseen (List.concat_map expand evs)
      in
      if proposals = [] then continue_ := false
      else eval_batch proposals
    done);
  let evs = List.rev !order in
  Option.iter (fun o -> observe o evs) obs;
  let count o = List.length (List.filter (fun e -> e.e_outcome = o) evs) in
  { x_subject = source_name src;
    x_strategy = strategy;
    x_evals = evs;
    x_frontier = frontier evs;
    x_best = best evs;
    x_fresh_evals = List.length evs;
    x_fresh_sims = count Simulated;
    x_pruned = count Area_pruned;
    x_timing_pruned = count Timing_pruned;
    x_reused = count Reused }

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

(** The human-readable frontier table.  Deliberately free of wall-clock
    or job-count detail: for a fixed seed this output is byte-identical
    whatever [--jobs] was. *)
let pp_result ppf (t : t) =
  Fmt.pf ppf
    "design space of %s (%s): %d configurations, %d simulated, %d \
     pruned by the area model, %d by the timing bound, %d reused@."
    t.x_subject
    (strategy_to_string t.x_strategy)
    (List.length t.x_evals) t.x_fresh_sims t.x_pruned t.x_timing_pruned
    t.x_reused;
  Fmt.pf ppf "@.  %10s %8s %8s %6s  %s@." "cycles" "ALMs" "kum2" "MHz"
    "config";
  List.iter
    (fun e ->
      Fmt.pf ppf "  %10d %8d %8.1f %6.0f  %s@."
        (Option.value ~default:0 e.e_cycles)
        e.e_alms e.e_asic_area e.e_mhz (Config.label e.e_cfg))
    t.x_frontier;
  match t.x_best with
  | None -> Fmt.pf ppf "@.no feasible configuration within the budget@."
  | Some b ->
    Fmt.pf ppf "@.best: %s  (%d cycles, %d ALMs, key %s)@."
      (Config.label b.e_cfg)
      (Option.value ~default:0 b.e_cycles)
      b.e_alms b.e_key

(* --- JSON ----------------------------------------------------------- *)

module J = Muir_trace.Json

let eval_to_json (e : eval) : J.t =
  let cfg = e.e_cfg in
  J.Obj
    [ ("config", J.Str (Config.label cfg)); ("key", J.Str e.e_key);
      ("stack", J.Str cfg.stack); ("tiles", J.Int cfg.tiles);
      ("banks", J.Int cfg.banks);
      ("off", J.Arr (List.map (fun o -> J.Str o) cfg.off));
      ("pruned", J.Bool (pruned e));
      ("timing_pruned", J.Bool (e.e_outcome = Timing_pruned));
      ("bound", J.Int e.e_bound);
      ("cycles", Option.fold ~none:J.Null ~some:(fun c -> J.Int c) e.e_cycles);
      ("alms", J.Int e.e_alms); ("brams", J.Int e.e_brams);
      ("mhz", J.Float e.e_mhz); ("asic_kum2", J.Float e.e_asic_area);
      ("us", Option.fold ~none:J.Null ~some:(fun u -> J.Float u) e.e_us) ]

let to_json (t : t) : string =
  let list evs = J.Arr (List.map eval_to_json evs) in
  (* The same deterministic provenance block run reports carry: no
     wall-clock content, so identical explorations serialize
     byte-identically. *)
  J.to_string
    (J.Obj
       [ ( "provenance",
           Muir_trace.Report.provenance_json (Muir_trace.Report.provenance ())
         );
         ("subject", J.Str t.x_subject);
         ("strategy", J.Str (strategy_to_string t.x_strategy));
         ("evals", list t.x_evals); ("frontier", list t.x_frontier);
         ("best", Option.fold ~none:J.Null ~some:eval_to_json t.x_best);
         ("fresh_evals", J.Int t.x_fresh_evals);
         ("fresh_sims", J.Int t.x_fresh_sims); ("pruned", J.Int t.x_pruned);
         ("timing_pruned", J.Int t.x_timing_pruned);
         ("reused", J.Int t.x_reused) ])
