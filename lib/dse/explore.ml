(** The design-space explorer: enumerate μopt configurations
    ({!Config.t}), evaluate each one with the cycle-level simulator
    (performance) and the synthesis models (cost), and report the
    cycles-vs-area Pareto frontier.

    Evaluation is memoized through a content-keyed {!Cache} and fanned
    out over a {!Pool} of domains; because the cache is consulted and
    filled only by the coordinating domain and the pool merges results
    by input index, the explorer's output is identical for every
    [--jobs] value.

    Two search strategies:
    - {e grid} — exhaustive sweep of a finite space (the default space
      covers every registry stack × tiles × banks × op-fusion on/off,
      and always contains each predefined stack at its own defaults);
    - {e greedy} — counter-guided hill climb: seeds every stack at
      minimal parameters and widens the parameter behind the dominant
      stall ({!Muir_trace.Profile} attribution over the simulator's
      always-on counter bank — no event ring involved: task-queue
      stalls → more tiles, memory-structure stalls → more banks), with
      a seeded-LCG diversification step that also expands one other
      frontier point per round.

    Either way, a configuration whose modeled FPGA area already
    exceeds [--area-budget] is pruned analytically — the model runs,
    the simulator does not. *)

module G = Muir_core.Graph
module Stacks = Muir_opt.Stacks
module W = Muir_workloads.Workloads

(* ------------------------------------------------------------------ *)
(* Subjects                                                             *)

(** What to explore: a name and a thunk producing a fresh program.
    The thunk runs once per evaluation {e inside the worker domain},
    so nothing mutable (program memory included) is ever shared across
    domains. *)
type subject = {
  s_name : string;
  s_program : unit -> Muir_ir.Program.t;
}

let workload_subject (w : W.t) : subject =
  { s_name = w.wname; s_program = (fun () -> W.program w) }

let source_subject ~(name : string) (src : string) : subject =
  { s_name = name;
    s_program = (fun () -> Muir_frontend.Frontend.compile src) }

(* ------------------------------------------------------------------ *)
(* Evaluations                                                          *)

(** What the profiler blames, mapped onto the knob that widens it. *)
type hint = Widen_tiles | Widen_banks

type eval = {
  e_key : string;          (** {!Config.key} — the memo-cache key *)
  e_cfg : Config.t;
  e_alms : int;            (** FPGA cost (Arria-10-class ALMs) *)
  e_brams : int;
  e_mhz : float;
  e_asic_area : float;     (** ASIC logic area, 10^3 µm² at 28 nm *)
  e_bound : int;           (** static cycle lower bound ({!Muir_analysis.Timing}) *)
  e_cycles : int option;   (** [None] — pruned before simulation *)
  e_us : float option;     (** cycles at the modeled FPGA clock *)
  e_tpruned : bool;        (** pruned by the timing bound, not area *)
  e_hint : hint option;    (** greedy guidance, from the counter bank *)
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

(** Evaluate one configuration from scratch: compile, build, optimize,
    model — and, if neither the area budget nor an incumbent's timing
    domination rules it out, simulate.  [dominators] are
    already-simulated [(cycles, alms)] points (the coordinator passes
    the current frontier).  Every simulated evaluation checks the
    static bound against the measured cycles — the analysis's
    soundness contract is enforced on every run, not only in tests. *)
let evaluate ?now ~(subject : subject) ~(area_budget : int option)
    ~(dominators : (int * int) list) (cfg : Config.t) : eval =
  let module P = Muir_pipeline.Pipeline in
  let ctl = P.ctl ?now () in
  let key = Config.key cfg in
  let b =
    P.build ~ctl ~passes:(Config.passes cfg)
      { P.src_name = Some subject.s_name; src_load = subject.s_program }
  in
  let c = b.P.p_circuit in
  let m = P.model ~ctl b in
  let f = m.P.m_fpga in
  let a = m.P.m_asic in
  let bound = Muir_analysis.Timing.bound_cycles c in
  let base =
    { e_key = key; e_cfg = cfg; e_alms = f.fr_alms; e_brams = f.fr_brams;
      e_mhz = f.fr_mhz; e_asic_area = a.ar_area; e_bound = bound;
      e_cycles = None; e_us = None; e_tpruned = false; e_hint = None;
      e_secs = ctl.P.stage_seconds; e_counts = ctl.P.stage_counts }
  in
  let over =
    match area_budget with Some b -> f.fr_alms > b | None -> false
  in
  if over then base
  else if
    List.exists (timing_dominates ~bound ~alms:f.fr_alms) dominators
  then { base with e_tpruned = true }
  else begin
    let r = P.simulate ~ctl b in
    let cycles = r.Muir_sim.Sim.stats.total_cycles in
    if bound > cycles then
      invalid_arg
        (Fmt.str
           "timing unsound on %s (%s): static bound %d > measured %d \
            cycles"
           subject.s_name (Config.label cfg) bound cycles);
    (* The hint comes from the always-on counter bank — every
       simulated evaluation gets one, no event ring attached. *)
    let prof = Muir_trace.Profile.of_run c r.Muir_sim.Sim.counters in
    let hint =
      match Muir_trace.Profile.dominant_struct prof with
      | None -> None
      | Some s -> (
        match s.s_ref with
        | G.Rqueue _ -> Some Widen_tiles
        | G.Rstruct sid -> (
          match (G.structure c sid).shape with
          | G.Cache _ | G.Scratchpad _ -> Some Widen_banks))
    in
    { base with
      e_cycles = Some cycles;
      e_us = Some (float_of_int cycles /. f.fr_mhz);
      e_hint = hint }
  end

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

(** The explorer's registered metric handles ([muir_dse_*] naming
    convention); created against the [?obs] registry when one is
    passed.  Updated by the coordinating domain only, and only for
    {e fresh} evaluations — a cached replay is never re-observed, so
    [muir_dse_evals_total] always equals [fresh_evals] in the JSON. *)
type dse_mx = {
  dx_evals : Muir_obs.Metrics.counter;
  dx_sims : Muir_obs.Metrics.counter;
  dx_pruned_area : Muir_obs.Metrics.counter;
  dx_pruned_timing : Muir_obs.Metrics.counter;
  dx_cache_hits : Muir_obs.Metrics.counter;
  dx_eval_seconds : Muir_obs.Metrics.hist;
  dx_stage : Muir_obs.Metrics.hist array;
}

let make_dse_mx (obs : Muir_obs.Obs.t) : dse_mx =
  let module M = Muir_obs.Metrics in
  let module P = Muir_pipeline.Pipeline in
  let r = obs.Muir_obs.Obs.o_metrics in
  { dx_evals =
      M.counter r ~help:"Fresh configuration evaluations."
        "muir_dse_evals_total";
    dx_sims =
      M.counter r ~help:"Fresh evaluations that reached the simulator."
        "muir_dse_sims_total";
    dx_pruned_area =
      M.counter r ~help:"Fresh evaluations pruned before simulation."
        ~labels:[ ("kind", "area") ] "muir_dse_pruned_total";
    dx_pruned_timing =
      M.counter r ~help:"Fresh evaluations pruned before simulation."
        ~labels:[ ("kind", "timing") ] "muir_dse_pruned_total";
    dx_cache_hits =
      M.counter r ~help:"Evaluations answered from the memo cache."
        "muir_dse_cache_hits_total";
    dx_eval_seconds =
      M.histogram r ~help:"Whole-evaluation seconds (fresh only)."
        "muir_dse_eval_seconds";
    dx_stage =
      Array.of_list
        (List.map
           (fun st ->
             M.histogram r ~help:"Per-stage seconds of fresh evaluations."
               ~labels:[ ("stage", P.stage_name st) ]
               "muir_dse_stage_seconds")
           P.stages) }

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
  x_cache_hits : int;      (** evaluations answered from the cache *)
  x_cache : Cache.stats;
}

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
    ?(timing_prune = false) ?(seed = 0) ?(cache : eval Cache.t option)
    ?grid ?obs (subject : subject) : t =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let mx = Option.map make_dse_mx obs in
  let tick f = match mx with Some m -> f m | None -> () in
  let now =
    match obs with
    | Some o -> Some (fun () -> Muir_obs.Obs.now o)
    | None -> None
  in
  let fresh_evals = ref 0 and fresh_sims = ref 0 in
  let prune_count = ref 0 and tprune_count = ref 0 and hits = ref 0 in
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  let record ev =
    if not (Hashtbl.mem seen ev.e_key) then begin
      Hashtbl.add seen ev.e_key ();
      order := ev :: !order
    end
  in
  let remaining () = budget_evals - !fresh_evals in
  (* Evaluate a batch of configurations: answer what the cache knows,
     dispatch the rest to the pool (within budget), and fold fresh
     results back into the cache.  Cache traffic stays in this domain. *)
  let eval_batch (cfgs : Config.t list) : unit =
    let keys = Hashtbl.create 16 in
    let uniq =
      List.filter
        (fun cfg ->
          let k = Config.key cfg in
          if Hashtbl.mem keys k then false
          else begin
            Hashtbl.add keys k ();
            true
          end)
        cfgs
    in
    let cached, fresh =
      List.partition_map
        (fun cfg ->
          let k = Config.key cfg in
          match Cache.find_opt cache k with
          | Some ev ->
            incr hits;
            tick (fun m -> Muir_obs.Metrics.inc m.dx_cache_hits);
            Either.Left ev
          | None -> Either.Right cfg)
        uniq
    in
    List.iter record cached;
    let fresh = List.filteri (fun i _ -> i < remaining ()) fresh in
    (* Fixed-size chunks so the timing filter sees the same incumbent
       frontier whatever [--jobs] is: dominators are recomputed in
       this domain between chunks, never inside workers. *)
    let rec by_chunk todo =
      match todo with
      | [] -> ()
      | _ ->
        let chunk, rest = split_at 8 todo in
        let dominators =
          if not timing_prune then []
          else
            List.filter_map
              (fun e ->
                match e.e_cycles with
                | Some c -> Some (c, e.e_alms)
                | None -> None)
              (frontier (List.rev !order))
        in
        let results =
          Pool.map ~jobs (evaluate ?now ~subject ~area_budget ~dominators)
            chunk
        in
        List.iter
          (fun ev ->
            (* A timing-pruned result is relative to this run's
               incumbents — never memoize it. *)
            if not ev.e_tpruned then Cache.add cache ev.e_key ev;
            incr fresh_evals;
            if ev.e_tpruned then incr tprune_count
            else if pruned ev then incr prune_count
            else incr fresh_sims;
            tick (fun m ->
                let module M = Muir_obs.Metrics in
                M.inc m.dx_evals;
                if ev.e_tpruned then M.inc m.dx_pruned_timing
                else if pruned ev then M.inc m.dx_pruned_area
                else M.inc m.dx_sims;
                M.observe m.dx_eval_seconds
                  (Array.fold_left ( +. ) 0.0 ev.e_secs);
                Array.iteri
                  (fun i n -> if n > 0 then M.observe m.dx_stage.(i) ev.e_secs.(i))
                  ev.e_counts);
            record ev)
          results;
        by_chunk rest
    in
    by_chunk fresh
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
  { x_subject = subject.s_name;
    x_strategy = strategy;
    x_evals = evs;
    x_frontier = frontier evs;
    x_best = best evs;
    x_fresh_evals = !fresh_evals;
    x_fresh_sims = !fresh_sims;
    x_pruned = !prune_count;
    x_timing_pruned = !tprune_count;
    x_cache_hits = !hits;
    x_cache = Cache.stats cache }

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

(** The human-readable frontier table.  Deliberately free of wall-clock
    or job-count detail: for a fixed seed this output is byte-identical
    whatever [--jobs] was. *)
let pp_result ppf (t : t) =
  Fmt.pf ppf
    "design space of %s (%s): %d configurations, %d simulated, %d \
     pruned by the area model, %d by the timing bound, %d from cache@."
    t.x_subject
    (strategy_to_string t.x_strategy)
    (List.length t.x_evals) t.x_fresh_sims t.x_pruned t.x_timing_pruned
    t.x_cache_hits;
  Fmt.pf ppf "@.  %10s %8s %8s %6s  %s@." "cycles" "ALMs" "kum2" "MHz"
    "config";
  List.iter
    (fun e ->
      Fmt.pf ppf "  %10d %8d %8.1f %6.0f  %s@."
        (Option.value ~default:0 e.e_cycles)
        e.e_alms e.e_asic_area e.e_mhz (Config.label e.e_cfg))
    t.x_frontier;
  (match t.x_best with
  | None -> Fmt.pf ppf "@.no feasible configuration within the budget@."
  | Some b ->
    Fmt.pf ppf "@.best: %s  (%d cycles, %d ALMs, key %s)@."
      (Config.label b.e_cfg)
      (Option.value ~default:0 b.e_cycles)
      b.e_alms b.e_key);
  Fmt.pf ppf "cache: %a@." Cache.pp_stats t.x_cache

(* --- JSON ----------------------------------------------------------- *)

module J = Muir_trace.Json

let eval_to_json (e : eval) : J.t =
  let cfg = e.e_cfg in
  J.Obj
    [ ("config", J.Str (Config.label cfg)); ("key", J.Str e.e_key);
      ("stack", J.Str cfg.stack); ("tiles", J.Int cfg.tiles);
      ("banks", J.Int cfg.banks);
      ("off", J.Arr (List.map (fun o -> J.Str o) cfg.off));
      ("pruned", J.Bool (pruned e)); ("timing_pruned", J.Bool e.e_tpruned);
      ("bound", J.Int e.e_bound);
      ("cycles", Option.fold ~none:J.Null ~some:(fun c -> J.Int c) e.e_cycles);
      ("alms", J.Int e.e_alms); ("brams", J.Int e.e_brams);
      ("mhz", J.Float e.e_mhz); ("asic_kum2", J.Float e.e_asic_area);
      ("us", Option.fold ~none:J.Null ~some:(fun u -> J.Float u) e.e_us) ]

let to_json (t : t) : string =
  let list evs = J.Arr (List.map eval_to_json evs) in
  (* The same deterministic provenance block run reports carry: no
     wall-clock content, so identical explorations serialize
     byte-identically (and remain cache-key-friendly). *)
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
         ("cache_hits", J.Int t.x_cache_hits);
         ( "cache",
           J.Obj
             [ ("hits", J.Int t.x_cache.c_hits);
               ("misses", J.Int t.x_cache.c_misses);
               ("entries", J.Int t.x_cache.c_entries) ] ) ])
