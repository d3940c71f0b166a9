(** The evaluation of one configuration, shared by the explorer
    ({!Explore}) and the serve daemon.

    Configurations often build the same optimized circuit (a pass with
    nothing to transform leaves it as it was), and everything either
    caller reads is a function of that circuit, so a {!memo} from the
    circuit's {!Muir_core.Graph.digest} lets each distinct circuit be
    lowered, modeled and simulated once.  Evaluation is two steps, each
    run in a worker domain: {!prepare} compiles, builds, optimizes and
    digests, and lowers and models only an unknown digest; {!finish}
    simulates and profiles the run once, for both the {!hint} and the
    report.  Workers only read the memo; the coordinating domain
    {!add}s to it between pool maps. *)

module G = Muir_core.Graph
module P = Muir_pipeline.Pipeline
module Model = Muir_model.Model

(** What the profiler blames, mapped onto the knob that widens it. *)
type hint = Widen_tiles | Widen_banks

(** Everything either caller reads of one simulated circuit. *)
type entry = {
  en_fpga : Model.fpga_report;
  en_asic : Model.asic_report;
  en_cycles : int;           (** total cycles of the simulation *)
  en_hint : hint option;     (** greedy guidance, from the counter bank *)
  en_payload : string;       (** report JSON, under the label of the
                                 first configuration that built it *)
}

(** Optimized-circuit digest → entry; only simulated circuits enter. *)
type memo = (string, entry) Hashtbl.t

let memo () : memo = Hashtbl.create 64

(** Record [e] for [digest] unless the memo already holds it. *)
let add (m : memo) (digest : string) (e : entry) : unit =
  if not (Hashtbl.mem m digest) then Hashtbl.add m digest e

type step =
  | Known of entry          (** the memo held the digest *)
  | Modeled of P.modeled    (** lowered and modeled; not yet simulated *)

type prepared = {
  pr_cfg : Config.t;
  pr_ctl : P.ctl;           (** carries on into {!finish} *)
  pr_built : P.built;
  pr_digest : string;       (** of the optimized circuit *)
  pr_step : step;
}

(** Compile, build and optimize [cfg] on [src] under [ctl], then digest
    the circuit; lower and model it unless [memo] knows the digest. *)
let prepare ~(ctl : P.ctl) ~(memo : memo) (src : P.source) (cfg : Config.t)
    : prepared =
  let b = P.build ~ctl ~passes:(Config.passes cfg) src in
  let d = G.digest b.p_circuit in
  let step =
    match Hashtbl.find_opt memo d with
    | Some e -> Known e
    | None -> Modeled (P.model ~ctl b)
  in
  { pr_cfg = cfg; pr_ctl = ctl; pr_built = b; pr_digest = d; pr_step = step }

(** The FPGA and ASIC models of a prepared configuration. *)
let cost (p : prepared) : Model.fpga_report * Model.asic_report =
  match p.pr_step with
  | Known e -> (e.en_fpga, e.en_asic)
  | Modeled m -> (m.m_fpga, m.m_asic)

(** Simulate a prepared configuration and profile the run once, for
    the hint and the report; a known digest's entry is returned. *)
let finish (p : prepared) : entry =
  match p.pr_step with
  | Known e -> e
  | Modeled m ->
    let b = p.pr_built in
    let c = b.p_circuit in
    let r = P.simulate ~ctl:p.pr_ctl b in
    let profile = Muir_trace.Profile.of_run c r.counters in
    let hint =
      match Muir_trace.Profile.dominant_struct profile with
      | None -> None
      | Some s -> (
        match s.s_ref with
        | G.Rqueue _ -> Some Widen_tiles
        | G.Rstruct sid -> (
          match (G.structure c sid).shape with
          | G.Cache _ | G.Scratchpad _ -> Some Widen_banks))
    in
    let report =
      P.report ~profile ~stack:(Config.label p.pr_cfg)
        ~knobs:(Config.knobs p.pr_cfg) b m r
    in
    { en_fpga = m.m_fpga; en_asic = m.m_asic;
      en_cycles = r.stats.total_cycles; en_hint = hint;
      en_payload = Muir_trace.Report.to_json report }
