(** Versioned, machine-readable run reports.

    A {!run} captures everything one simulation produced — workload,
    μopt stack, config knobs, cycle counts, the always-on {!Counters}
    bank, per-structure stall attribution and (optionally) the
    FPGA/ASIC model outputs — in a stable JSON schema.  `muirc profile
    --json` emits one run; `bench/main.exe --json` emits a {!suite} of
    them, which is what the committed `bench/baseline.json` and the CI
    regression gate consume.

    {2 Determinism}

    Reports carry a {!provenance} block (schema version, `GIT_REV`
    from the environment with fallback "unknown", and the dune build
    profile) and {e no wall-clock timestamps}; wall seconds are an
    explicitly optional field the deterministic emitters leave null.
    Two runs of the same binary on the same input therefore produce
    byte-identical report files — which is what lets `lib/dse` treat a
    report as cache-key-addressable content and lets the regression
    gate diff baselines meaningfully.

    {2 Diff and compare semantics}

    [diff] renders the per-structure stall-cycle deltas between two
    runs (negative = the new run stalls less), headed by the total
    cycle delta.  [compare] matches two suites' runs by
    (workload, stack) and flags a regression when
    [new > base * (1 + tolerance/100)]; runs present on only one side
    are reported but never fail the gate. *)

module G = Muir_core.Graph

let schema_version = 1

type provenance = {
  pv_schema : int;
  pv_git_rev : string;   (** $GIT_REV, or "unknown" *)
  pv_profile : string;   (** dune build profile *)
}

let provenance () : provenance =
  { pv_schema = schema_version;
    pv_git_rev = Option.value ~default:"unknown" (Sys.getenv_opt "GIT_REV");
    pv_profile = Buildinfo.dune_profile }

(** One memory structure's counter row. *)
type mem_row = {
  m_name : string;
  m_accesses : int;
  m_hits : int;
  m_misses : int;
  m_conflicts : int;
}

type fpga = {
  f_mhz : float;
  f_alms : int;
  f_regs : int;
  f_dsps : int;
  f_brams : int;
}

type asic = {
  a_ghz : float;
  a_area : float;  (** 10^3 µm² at 28 nm *)
}

(** One node's whole-run counters, with causes by name so the schema
    survives taxonomy reordering. *)
type node_row = {
  nd_task : string;
  nd_node : int;
  nd_kind : string;
  nd_fires : int;
  nd_span : int;
  nd_causes : (string * int) list;  (** cause name -> cycles *)
}

type occ_row = {
  oc_key : string;     (** "queue:<task>" or the structure name *)
  oc_cycles : int;
  oc_sum : int;
  oc_max : int;
}

type run = {
  r_workload : string;
  r_stack : string;
  r_knobs : (string * int) list;  (** e.g. tiles/banks *)
  r_cycles : int;                 (** total (sim + DMA) *)
  r_sim_cycles : int;
  r_fires : int;
  r_spawns : int;
  r_syncs : int;
  r_wall : float option;          (** None in deterministic reports *)
  r_nodes : node_row list;
  r_occ : occ_row list;
  r_mem : mem_row list;
  r_structs : (string * int) list;
      (** structure / queue -> attributed stall cycles *)
  r_fpga : fpga option;
  r_asic : asic option;
}

type suite = { su_provenance : provenance; su_runs : run list }

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)

(** Build a run record from a finished simulation's counter bank.
    [mem] comes from [Sim.stats.mem] (converted by the caller — this
    library does not depend on the simulator).  [profile], when given,
    is [Profile.of_run c ctrs], already computed by the caller. *)
let make ~(workload : string) ~(stack : string) ?(knobs = []) ?wall
    ?(mem = []) ?fpga ?asic ?profile ~(total_cycles : int) (c : G.circuit)
    (ctrs : Counters.t) : run =
  let p =
    match profile with Some p -> p | None -> Profile.of_run c ctrs
  in
  let nodes =
    List.map
      (fun (r : Profile.row) ->
        { nd_task = r.r_tname; nd_node = r.r_node; nd_kind = r.r_kind;
          nd_fires = r.r_fires; nd_span = r.r_span;
          nd_causes =
            List.filter_map
              (fun i ->
                let v = r.r_acc.(i) in
                if v = 0 then None
                else Some (Counters.cause_name Counters.cause_of_index.(i), v))
              (List.init Counters.ncauses Fun.id) })
      p.Profile.p_rows
  in
  let occ =
    List.map
      (fun k ->
        let o = Option.get (Counters.find_occ ctrs k) in
        { oc_key = Counters.key_name c k; oc_cycles = o.Counters.o_cycles;
          oc_sum = o.Counters.o_sum; oc_max = o.Counters.o_max })
      (Counters.occ_keys ctrs)
  in
  { r_workload = workload; r_stack = stack; r_knobs = knobs;
    r_cycles = total_cycles; r_sim_cycles = ctrs.Counters.final_cycle;
    r_fires = p.Profile.p_fires; r_spawns = ctrs.Counters.spawns;
    r_syncs = ctrs.Counters.syncs; r_wall = wall; r_nodes = nodes;
    r_occ = occ; r_mem = mem;
    r_structs =
      List.map
        (fun (s : Profile.struct_row) -> (s.s_name, s.s_stalls))
        p.Profile.p_structs;
    r_fpga = fpga; r_asic = asic }

(* ------------------------------------------------------------------ *)
(* JSON emission                                                        *)

let provenance_json (pv : provenance) : Json.t =
  Json.Obj
    [ ("schema", Json.Int pv.pv_schema);
      ("git_rev", Json.Str pv.pv_git_rev);
      ("dune_profile", Json.Str pv.pv_profile) ]

let run_json (r : run) : Json.t =
  Json.Obj
    [ ("workload", Json.Str r.r_workload);
      ("stack", Json.Str r.r_stack);
      ("knobs", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.r_knobs));
      ("cycles", Json.Int r.r_cycles);
      ("sim_cycles", Json.Int r.r_sim_cycles);
      ("fires", Json.Int r.r_fires);
      ("spawns", Json.Int r.r_spawns);
      ("syncs", Json.Int r.r_syncs);
      ( "wall_seconds",
        match r.r_wall with None -> Json.Null | Some w -> Json.Float w );
      ( "counters",
        Json.Obj
          [ ( "nodes",
              Json.Arr
                (List.map
                   (fun n ->
                     Json.Obj
                       [ ("task", Json.Str n.nd_task);
                         ("node", Json.Int n.nd_node);
                         ("kind", Json.Str n.nd_kind);
                         ("fires", Json.Int n.nd_fires);
                         ("span", Json.Int n.nd_span);
                         ( "causes",
                           Json.Obj
                             (List.map
                                (fun (c, v) -> (c, Json.Int v))
                                n.nd_causes) ) ])
                   r.r_nodes) );
            ( "occupancy",
              Json.Arr
                (List.map
                   (fun o ->
                     Json.Obj
                       [ ("key", Json.Str o.oc_key);
                         ("cycles", Json.Int o.oc_cycles);
                         ("sum", Json.Int o.oc_sum);
                         ("max", Json.Int o.oc_max) ])
                   r.r_occ) );
            ( "mem",
              Json.Arr
                (List.map
                   (fun m ->
                     Json.Obj
                       [ ("name", Json.Str m.m_name);
                         ("accesses", Json.Int m.m_accesses);
                         ("hits", Json.Int m.m_hits);
                         ("misses", Json.Int m.m_misses);
                         ("conflicts", Json.Int m.m_conflicts) ])
                   r.r_mem) ) ] );
      ( "structs",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.r_structs) );
      ( "fpga",
        match r.r_fpga with
        | None -> Json.Null
        | Some f ->
          Json.Obj
            [ ("mhz", Json.Float f.f_mhz); ("alms", Json.Int f.f_alms);
              ("regs", Json.Int f.f_regs); ("dsps", Json.Int f.f_dsps);
              ("brams", Json.Int f.f_brams) ] );
      ( "asic",
        match r.r_asic with
        | None -> Json.Null
        | Some a ->
          Json.Obj
            [ ("ghz", Json.Float a.a_ghz); ("kum2", Json.Float a.a_area) ] ) ]

let wrapped_json (pv : provenance) (r : run) : string =
  Json.to_string
    (Json.Obj [ ("provenance", provenance_json pv); ("run", run_json r) ])

(** A single run report, wrapped with its provenance. *)
let to_json (r : run) : string = wrapped_json (provenance ()) r

let suite_to_json (s : suite) : string =
  Json.to_string
    (Json.Obj
       [ ("provenance", provenance_json s.su_provenance);
         ("runs", Json.Arr (List.map run_json s.su_runs)) ])

(* ------------------------------------------------------------------ *)
(* Reading reports back                                                 *)

exception Bad_report of string

let prov_of_json (j : Json.t) : provenance =
  { pv_schema = Json.to_int_exn (Json.get "schema" j);
    pv_git_rev = Json.to_str_exn (Json.get "git_rev" j);
    pv_profile = Json.to_str_exn (Json.get "dune_profile" j) }

let int_assoc (j : Json.t) : (string * int) list =
  match j with
  | Json.Obj kvs -> List.map (fun (k, v) -> (k, Json.to_int_exn v)) kvs
  | _ -> []

let run_of_json (j : Json.t) : run =
  let str k = Json.to_str_exn (Json.get k j) in
  let int k = Json.to_int_exn (Json.get k j) in
  let opt_int k = Option.value ~default:0 (Option.map Json.to_int_exn (Json.member k j)) in
  let ctrs = Option.value ~default:(Json.Obj []) (Json.member "counters" j) in
  let nodes =
    List.map
      (fun n ->
        { nd_task = Json.to_str_exn (Json.get "task" n);
          nd_node = Json.to_int_exn (Json.get "node" n);
          nd_kind = Json.to_str_exn (Json.get "kind" n);
          nd_fires = Json.to_int_exn (Json.get "fires" n);
          nd_span = Json.to_int_exn (Json.get "span" n);
          nd_causes =
            int_assoc (Option.value ~default:(Json.Obj []) (Json.member "causes" n)) })
      (Json.to_list (Option.value ~default:(Json.Arr []) (Json.member "nodes" ctrs)))
  in
  let occ =
    List.map
      (fun o ->
        { oc_key = Json.to_str_exn (Json.get "key" o);
          oc_cycles = Json.to_int_exn (Json.get "cycles" o);
          oc_sum = Json.to_int_exn (Json.get "sum" o);
          oc_max = Json.to_int_exn (Json.get "max" o) })
      (Json.to_list
         (Option.value ~default:(Json.Arr []) (Json.member "occupancy" ctrs)))
  in
  let mem =
    List.map
      (fun m ->
        { m_name = Json.to_str_exn (Json.get "name" m);
          m_accesses = Json.to_int_exn (Json.get "accesses" m);
          m_hits = Json.to_int_exn (Json.get "hits" m);
          m_misses = Json.to_int_exn (Json.get "misses" m);
          m_conflicts = Json.to_int_exn (Json.get "conflicts" m) })
      (Json.to_list (Option.value ~default:(Json.Arr []) (Json.member "mem" ctrs)))
  in
  { r_workload = str "workload"; r_stack = str "stack";
    r_knobs =
      int_assoc (Option.value ~default:(Json.Obj []) (Json.member "knobs" j));
    r_cycles = int "cycles"; r_sim_cycles = opt_int "sim_cycles";
    r_fires = opt_int "fires"; r_spawns = opt_int "spawns";
    r_syncs = opt_int "syncs";
    r_wall =
      (match Json.member "wall_seconds" j with
      | Some (Json.Float w) -> Some w
      | Some (Json.Int w) -> Some (float_of_int w)
      | _ -> None);
    r_nodes = nodes; r_occ = occ; r_mem = mem;
    r_structs =
      int_assoc (Option.value ~default:(Json.Obj []) (Json.member "structs" j));
    r_fpga =
      (match Json.member "fpga" j with
      | Some (Json.Obj _ as f) ->
        Some
          { f_mhz = Json.to_float_exn (Json.get "mhz" f);
            f_alms = Json.to_int_exn (Json.get "alms" f);
            f_regs = Json.to_int_exn (Json.get "regs" f);
            f_dsps = Json.to_int_exn (Json.get "dsps" f);
            f_brams = Json.to_int_exn (Json.get "brams" f) }
      | _ -> None);
    r_asic =
      (match Json.member "asic" j with
      | Some (Json.Obj _ as a) ->
        Some
          { a_ghz = Json.to_float_exn (Json.get "ghz" a);
            a_area = Json.to_float_exn (Json.get "kum2" a) }
      | _ -> None) }

(** Parse a report file's contents: either a suite ({"runs": [...]})
    or a single wrapped run ({"run": {...}}). *)
let parse (s : string) : suite =
  let j =
    try Json.parse s
    with Json.Parse_error e -> raise (Bad_report ("invalid JSON: " ^ e))
  in
  try
    let pv =
      match Json.member "provenance" j with
      | Some p -> prov_of_json p
      | None ->
        { pv_schema = schema_version; pv_git_rev = "unknown";
          pv_profile = "unknown" }
    in
    if pv.pv_schema > schema_version then
      raise
        (Bad_report
           (Fmt.str "report schema %d is newer than supported %d"
              pv.pv_schema schema_version));
    let runs =
      match Json.member "runs" j with
      | Some rs -> List.map run_of_json (Json.to_list rs)
      | None -> (
        match Json.member "run" j with
        | Some r -> [ run_of_json r ]
        | None -> raise (Bad_report "neither \"runs\" nor \"run\" present"))
    in
    { su_provenance = pv; su_runs = runs }
  with Json.Parse_error e -> raise (Bad_report ("malformed report: " ^ e))

let load (path : string) : suite =
  parse (In_channel.with_open_bin path In_channel.input_all)

(** The single-run report [payload] under another stack label and
    knobs, everything else (provenance included) kept: what {!to_json}
    prints for the same simulation run under [stack] and [knobs].  The
    serve daemon answers a configuration whose optimized circuit it has
    already simulated this way.
    @raise Bad_report unless [payload] holds exactly one run *)
let relabel ~(stack : string) ~(knobs : (string * int) list)
    (payload : string) : string =
  match parse payload with
  | { su_provenance; su_runs = [ r ] } ->
    wrapped_json su_provenance { r with r_stack = stack; r_knobs = knobs }
  | _ -> raise (Bad_report "relabel: expected a single-run report")

(* ------------------------------------------------------------------ *)
(* Diff                                                                 *)

(** Per-structure cycle-delta view between two runs: total cycles
    first, then each structure's attributed stall cycles (negative =
    the new run is better). *)
let pp_diff ppf (a : run) (b : run) : unit =
  let pm d = if d > 0 then Fmt.str "+%d" d else string_of_int d in
  Fmt.pf ppf "diff %s [%s] -> %s [%s]@." a.r_workload a.r_stack b.r_workload
    b.r_stack;
  Fmt.pf ppf "  total cycles   %8d -> %8d   (%s)@." a.r_cycles b.r_cycles
    (pm (b.r_cycles - a.r_cycles));
  Fmt.pf ppf "  fires          %8d -> %8d   (%s)@." a.r_fires b.r_fires
    (pm (b.r_fires - a.r_fires));
  let names =
    List.sort_uniq compare (List.map fst a.r_structs @ List.map fst b.r_structs)
  in
  if names = [] then Fmt.pf ppf "  (no structure-attributed stalls)@."
  else begin
    Fmt.pf ppf "  stall cycles by structure:@.";
    List.iter
      (fun name ->
        let va = Option.value ~default:0 (List.assoc_opt name a.r_structs) in
        let vb = Option.value ~default:0 (List.assoc_opt name b.r_structs) in
        if va <> 0 || vb <> 0 then
          Fmt.pf ppf "    %-18s %8d -> %8d   (%s)@." name va vb (pm (vb - va)))
      names
  end

(* ------------------------------------------------------------------ *)
(* Compare (the regression gate)                                        *)

type verdict = {
  v_workload : string;
  v_stack : string;
  v_base : int;
  v_new : int;
  v_delta_pct : float;
  v_regressed : bool;
}

type comparison = {
  cmp_verdicts : verdict list;
  cmp_only_base : (string * string) list;  (** runs missing from new *)
  cmp_only_new : (string * string) list;   (** runs missing from base *)
}

let any_regression (c : comparison) : bool =
  List.exists (fun v -> v.v_regressed) c.cmp_verdicts

(** Match runs by (workload, stack); a run regresses when its new
    cycle count exceeds base * (1 + tolerance/100). *)
let compare_suites ~(tolerance : float) (base : suite) (next : suite) :
    comparison =
  let key (r : run) = (r.r_workload, r.r_stack) in
  let find s r = List.find_opt (fun r' -> key r' = key r) s.su_runs in
  let verdicts =
    List.filter_map
      (fun rb ->
        match find next rb with
        | None -> None
        | Some rn ->
          let limit =
            float_of_int rb.r_cycles *. (1.0 +. (tolerance /. 100.0))
          in
          let delta =
            if rb.r_cycles = 0 then 0.0
            else
              100.0
              *. float_of_int (rn.r_cycles - rb.r_cycles)
              /. float_of_int rb.r_cycles
          in
          Some
            { v_workload = rb.r_workload; v_stack = rb.r_stack;
              v_base = rb.r_cycles; v_new = rn.r_cycles;
              v_delta_pct = delta;
              v_regressed = float_of_int rn.r_cycles > limit })
      base.su_runs
  in
  { cmp_verdicts = verdicts;
    cmp_only_base =
      List.filter_map
        (fun rb -> if find next rb = None then Some (key rb) else None)
        base.su_runs;
    cmp_only_new =
      List.filter_map
        (fun rn -> if find base rn = None then Some (key rn) else None)
        next.su_runs }

let pp_comparison ~(tolerance : float) ppf (c : comparison) : unit =
  Fmt.pf ppf "comparing %d run(s) at %.1f%% tolerance@."
    (List.length c.cmp_verdicts) tolerance;
  List.iter
    (fun v ->
      Fmt.pf ppf "  %-12s %-14s %8d -> %8d  %+6.2f%%  %s@." v.v_workload
        v.v_stack v.v_base v.v_new v.v_delta_pct
        (if v.v_regressed then "REGRESSED" else "ok"))
    c.cmp_verdicts;
  List.iter
    (fun (w, s) -> Fmt.pf ppf "  %-12s %-14s only in baseline@." w s)
    c.cmp_only_base;
  List.iter
    (fun (w, s) -> Fmt.pf ppf "  %-12s %-14s new (no baseline)@." w s)
    c.cmp_only_new;
  if any_regression c then
    Fmt.pf ppf "result: REGRESSION (%d of %d runs over tolerance)@."
      (List.length (List.filter (fun v -> v.v_regressed) c.cmp_verdicts))
      (List.length c.cmp_verdicts)
  else Fmt.pf ppf "result: ok@."
