(* The always-on counter bank's contract.

   The counters are the source of truth for every aggregate number in
   the repository — profiles, run reports, the bench regression gate —
   so they carry the strongest invariants we have:

   1. Conservation: busy + Σ stall-cause cycles = lifetime cycles for
      every (task, node) of every workload under every registry stack,
      with no tracer attached at all.

   2. Ring independence: the bank is identical whether the run was
      untraced, traced into a capacity-0 ring, or traced into a tiny
      ring that overwrote almost everything.  Tracing is passive; the
      counters never depend on retained history.

   3. No overflow/degeneracy on long runs: a heavily unrolled workload
      under the biggest stack keeps every accumulator non-negative and
      conserved, and the derived floating-point stats stay finite.

   4. The regression gate built on the reports actually gates: a +10%
      injected cycle count is flagged at 5% tolerance, and a
      self-comparison never is. *)

module W = Muir_workloads.Workloads
module G = Muir_core.Graph
module Ctr = Muir_trace.Counters
module P = Muir_trace.Profile
module Report = Muir_trace.Report
module Sim = Muir_sim.Sim

let stacks () : (string * Muir_opt.Pass.t list) list =
  List.map
    (fun name ->
      match Muir_opt.Stacks.find_spec name with
      | Some sp -> (name, sp.sp_build sp.sp_defaults)
      | None -> Alcotest.failf "registry lost stack %s" name)
    (Muir_opt.Stacks.names ())

let run ?tracer ?(unroll = false) (w : W.t)
    (passes : Muir_opt.Pass.t list) : G.circuit * Sim.result =
  let p = W.program w in
  if unroll then ignore (Muir_ir.Unroll.unroll ~max_trip:16 p);
  let c = Muir_core.Build.circuit ~name:w.wname p in
  ignore (Muir_opt.Pass.run_all passes c);
  (c, Sim.run ?tracer c)

let check_conserved ~(ctx : string) (c : G.circuit) (r : Sim.result) =
  let prof = P.of_run c r.counters in
  Alcotest.(check bool) (ctx ^ ": profile has rows") true (prof.p_rows <> []);
  List.iter
    (fun (row : P.row) ->
      if not (P.conserved row) then
        Alcotest.failf "%s: node %s n%d violates conservation: Σ=%d span=%d"
          ctx row.r_tname row.r_node
          (Array.fold_left ( + ) 0 row.r_acc)
          row.r_span)
    prof.p_rows;
  Alcotest.(check int)
    (ctx ^ ": counter fires == kernel fires")
    r.stats.fires
    (Ctr.total_fires r.counters);
  Alcotest.(check int)
    (ctx ^ ": final_cycle == simulated cycles")
    r.stats.cycles r.counters.Ctr.final_cycle

(* 1. Conservation with no tracer, per workload, under every registry
   stack. *)
let test_conservation (w : W.t) () =
  List.iter
    (fun (sname, passes) ->
      let c, r = run w passes in
      check_conserved ~ctx:(w.wname ^ "/" ^ sname) c r)
    (stacks ())

(* 2. The bank must not depend on the ring: untraced, capacity-0 and
   a 16-slot ring that sheds nearly everything all agree exactly. *)
let same_bank ~(ctx : string) (a : Ctr.t) (b : Ctr.t) =
  Alcotest.(check int) (ctx ^ ": spawns") a.Ctr.spawns b.Ctr.spawns;
  Alcotest.(check int) (ctx ^ ": syncs") a.Ctr.syncs b.Ctr.syncs;
  Alcotest.(check int)
    (ctx ^ ": final cycle")
    a.Ctr.final_cycle b.Ctr.final_cycle;
  Ctr.iter_nodes
    (fun ~task ~node (ga : Ctr.node_ctr) ->
      match Ctr.find_node b ~task ~node with
      | None -> Alcotest.failf "%s: (%d, n%d) missing" ctx task node
      | Some gb ->
        Alcotest.(check int)
          (Fmt.str "%s: fires of (%d, n%d)" ctx task node)
          ga.Ctr.n_fires gb.Ctr.n_fires;
        Alcotest.(check int)
          (Fmt.str "%s: span of (%d, n%d)" ctx task node)
          ga.Ctr.n_span gb.Ctr.n_span;
        Alcotest.(check (array int))
          (Fmt.str "%s: causes of (%d, n%d)" ctx task node)
          ga.Ctr.n_acc gb.Ctr.n_acc)
    a;
  List.iter
    (fun k ->
      let oa = Option.get (Ctr.find_occ a k) in
      match Ctr.find_occ b k with
      | None -> Alcotest.failf "%s: occupancy key missing" ctx
      | Some ob ->
        Alcotest.(check (list int))
          (ctx ^ ": occupancy integral")
          [ oa.Ctr.o_cycles; oa.Ctr.o_sum; oa.Ctr.o_max ]
          [ ob.Ctr.o_cycles; ob.Ctr.o_sum; ob.Ctr.o_max ])
    (Ctr.occ_keys a)

let test_ring_independence (w : W.t) () =
  let _, r_off = run w [] in
  let _, r_zero = run ~tracer:(Muir_trace.Trace.create ~capacity:0 ()) w [] in
  let c, r_tiny = run ~tracer:(Muir_trace.Trace.create ~capacity:16 ()) w [] in
  same_bank ~ctx:(w.wname ^ " untraced vs cap-0") r_off.counters
    r_zero.counters;
  same_bank ~ctx:(w.wname ^ " untraced vs cap-16") r_off.counters
    r_tiny.counters;
  check_conserved ~ctx:(w.wname ^ "/cap-0") c r_zero;
  (* Cross-check against the trace-derived totals: in a ring big
     enough to lose nothing, the fire events are exactly the bank's
     fire count. *)
  let big = Muir_trace.Trace.create ~capacity:(1 lsl 22) () in
  let _, r_big = run ~tracer:big w [] in
  Alcotest.(check int)
    (w.wname ^ ": lossless ring")
    (Muir_trace.Trace.total_events big)
    (Muir_trace.Trace.retained_events big);
  let ring_fires =
    List.length
      (List.filter
         (function Muir_trace.Trace.Efire _ -> true | _ -> false)
         (Muir_trace.Trace.events big))
  in
  Alcotest.(check int)
    (w.wname ^ ": ring fires == counter fires")
    (Ctr.total_fires r_big.counters)
    ring_fires

(* 3. Long unrolled run: everything stays non-negative, conserved and
   finite. *)
let test_long_run () =
  let w = W.find "gemm" in
  let c, r =
    run ~unroll:true w (Muir_opt.Stacks.best_loop_stack ())
  in
  check_conserved ~ctx:"gemm unrolled/best" c r;
  Ctr.iter_nodes
    (fun ~task ~node (g : Ctr.node_ctr) ->
      if g.Ctr.n_fires < 0 || g.Ctr.n_span < 0
         || Array.exists (fun v -> v < 0) g.Ctr.n_acc then
        Alcotest.failf "negative accumulator on (%d, n%d)" task node)
    r.counters;
  Alcotest.(check bool)
    "a long run actually accumulated" true
    (Ctr.total_fires r.counters > 1000)

(* Occupancy oracle: the kernel integrates queue occupancy lazily, when
   a depth moves; that must equal sampling every queue at every cycle
   boundary.  The reference is a tracer, whose histograms count one
   sample per key per cycle: Σ count = o_cycles,
   Σ depth·count = o_sum, and the deepest sampled depth = o_max.  This
   pins the boundary rules: a depth change during cycle c is first
   seen at c + 1, the root's queue entry counts from cycle 0, and a
   depth that comes and goes within one cycle never becomes the
   high-water mark. *)
let test_occupancy_oracle (w : W.t) () =
  let best =
    match Muir_opt.Stacks.find_spec "best" with
    | Some sp -> sp.sp_build sp.sp_defaults
    | None -> Alcotest.fail "registry lost stack best"
  in
  List.iter
    (fun (sname, passes) ->
      let ctx = w.wname ^ "/" ^ sname in
      let tracer = Muir_trace.Trace.create ~capacity:0 () in
      let _, r = run ~tracer w passes in
      let keys = Ctr.occ_keys r.counters in
      Alcotest.(check bool) (ctx ^ ": has occupancy keys") true (keys <> []);
      Alcotest.(check bool)
        (ctx ^ ": same keys as the sampled reference")
        true
        (keys = Muir_trace.Trace.occupancy_keys tracer);
      List.iter
        (fun k ->
          let kctx =
            match k with
            | Ctr.Ktask i -> Fmt.str "%s task %d" ctx i
            | Ctr.Kstruct i -> Fmt.str "%s struct %d" ctx i
          in
          let o = Option.get (Ctr.find_occ r.counters k) in
          let hist = Muir_trace.Trace.occupancy_hist tracer k in
          let cycles = List.fold_left (fun acc (_, n) -> acc + n) 0 hist in
          let sum = List.fold_left (fun acc (d, n) -> acc + (d * n)) 0 hist in
          let mx = List.fold_left (fun acc (d, _) -> Int.max acc d) 0 hist in
          Alcotest.(check int) (kctx ^ ": every cycle integrated")
            r.stats.cycles o.Ctr.o_cycles;
          Alcotest.(check (list int))
            (kctx ^ ": cycles, Σ depth, max depth")
            [ cycles; sum; mx ]
            [ o.Ctr.o_cycles; o.Ctr.o_sum; o.Ctr.o_max ])
        keys)
    [ ("baseline", []); ("best", best) ]

(* Task-parallel workloads must show up in the spawn/sync counters. *)
let test_spawn_sync () =
  let w = W.find "fib" in
  let _, r = run w [] in
  Alcotest.(check bool) "fib spawns" true (r.counters.Ctr.spawns > 0);
  Alcotest.(check bool) "fib syncs" true (r.counters.Ctr.syncs > 0);
  (* fib(n) recursion spawns many children; every join completes. *)
  Alcotest.(check bool)
    "fib spawns >= syncs" true
    (r.counters.Ctr.spawns >= r.counters.Ctr.syncs)

(* A task that never runs adds no counter rows: the kernel builds a
   task's counter rows with its first instance.  The recursive [fib]
   below sits under a branch [main] never takes, so the report lists
   [main]'s three nodes and nothing of [fib]'s sixteen. *)
let test_never_invoked () =
  let p =
    Sim_harness.program
      {|
func int fib(int n) {
  if (n < 2) { return n; }
  int a = spawn fib(n - 1);
  int b = spawn fib(n - 2);
  sync;
  return a + b;
}
func int main() {
  int r = 0;
  if (r > 1) { r = fib(5); }
  return r;
}|}
  in
  let c = Muir_core.Build.circuit ~name:"nofib" p in
  let r = Sim.run c in
  let rep =
    Report.make ~workload:"nofib" ~stack:"baseline"
      ~total_cycles:r.stats.total_cycles c r.counters
  in
  Alcotest.(check (list (pair string int)))
    "report rows"
    [ ("main", 2); ("main", 1); ("main", 0) ]
    (List.map
       (fun (n : Report.node_row) -> (n.nd_task, n.nd_node))
       rep.r_nodes)

(* Derived stats are guarded against degenerate runs: never nan/inf. *)
let test_finite_stats () =
  List.iter
    (fun (w : W.t) ->
      let _, r = run w [] in
      let s = r.Sim.stats in
      List.iter
        (fun (name, v) ->
          if not (Float.is_finite v) then
            Alcotest.failf "%s: %s is %f" w.wname name v)
        [ ("woken_per_cycle", s.woken_per_cycle);
          ("gc_minor_words_per_cycle", s.gc_minor_words_per_cycle) ])
    W.all

(* ------------------------------------------------------------------ *)
(* 4. Run reports and the regression gate                               *)

let report_of (w : W.t) ~stack passes : Report.run =
  let c, r = run w passes in
  Report.make ~workload:w.wname ~stack
    ~total_cycles:r.Sim.stats.total_cycles c r.counters

let suite runs = { Report.su_provenance = Report.provenance (); su_runs = runs }

let test_report_roundtrip () =
  let rep = report_of (W.find "gemm") ~stack:"baseline" [] in
  let parsed = Report.parse (Report.to_json rep) in
  (match parsed.su_runs with
  | [ r ] ->
    Alcotest.(check string) "workload survives" rep.r_workload r.r_workload;
    Alcotest.(check int) "cycles survive" rep.r_cycles r.r_cycles;
    Alcotest.(check int) "fires survive" rep.r_fires r.r_fires;
    Alcotest.(check int)
      "node rows survive"
      (List.length rep.r_nodes)
      (List.length r.r_nodes);
    let causes (x : Report.run) =
      List.concat_map (fun (n : Report.node_row) -> n.nd_causes) x.r_nodes
    in
    Alcotest.(check (list (pair string int)))
      "per-cause cycles survive" (causes rep) (causes r)
  | rs -> Alcotest.failf "expected 1 run, got %d" (List.length rs));
  (* Determinism: emitting the same run twice is byte-identical. *)
  Alcotest.(check string)
    "byte-stable emission" (Report.to_json rep) (Report.to_json rep);
  (* A float in an integer field is malformed, not truncated: the gate
     must not read 46136.7 as 46136 or 1e300 as 0. *)
  let run_with ~cycles ~fires =
    Printf.sprintf
      {|{"run":{"workload":"w","stack":"s","cycles":%s,"counters":{"nodes":[{"task":"t","node":0,"kind":"k","fires":%s,"span":1}]}}}|}
      cycles fires
  in
  ignore (Report.parse (run_with ~cycles:"46136" ~fires:"272"));
  List.iter
    (fun v ->
      List.iter
        (fun (field, text) ->
          match Report.parse text with
          | exception Report.Bad_report _ -> ()
          | _ -> Alcotest.failf "accepted %s %s" field v)
        [ ("cycles", run_with ~cycles:v ~fires:"272");
          ("a node's fires", run_with ~cycles:"46136" ~fires:v) ])
    [ "46136.7"; "1e3"; "1e300" ];
  (* A report claiming a future schema must be refused. *)
  let future =
    Printf.sprintf
      "{\"provenance\":{\"schema\":%d,\"git_rev\":\"x\",\"dune_profile\":\"dev\"},\"runs\":[]}"
      (Report.schema_version + 1)
  in
  match Report.parse future with
  | exception Report.Bad_report _ -> ()
  | _ -> Alcotest.fail "accepted a newer schema"

(* Random damage to a saxpy run report — 1–8 bytes overwritten at
   random, or the file cut short — read the way [profile --diff] and
   [bench compare] read a report: [Report.parse] returns a suite or
   raises [Report.Bad_report], never another exception. *)
let prop_report_mutation () =
  let text = Report.to_json (report_of (W.find "saxpy") ~stack:"baseline" []) in
  let n = String.length text in
  let damage =
    QCheck.Gen.(
      oneof
        [ map
            (fun l -> `Overwrite l)
            (list_size (int_range 1 8)
               (pair (int_bound (n - 1)) (int_bound 255)));
          map (fun k -> `Cut k) (int_bound (n - 1)) ])
  in
  let mutate = function
    | `Cut k -> String.sub text 0 k
    | `Overwrite l ->
      let b = Bytes.of_string text in
      List.iter (fun (i, c) -> Bytes.set b i (Char.chr c)) l;
      Bytes.to_string b
  in
  QCheck.Test.make ~count:150 ~name:"mutated report parses or is refused"
    (QCheck.make ~print:(fun d -> String.escaped (mutate d)) damage)
    (fun d ->
      match Report.parse (mutate d) with
      | _ -> true
      | exception Report.Bad_report _ -> true)

let test_regression_gate () =
  let base =
    suite
      [ report_of (W.find "saxpy") ~stack:"baseline" [];
        report_of (W.find "fib") ~stack:"baseline" [] ]
  in
  (* Self-comparison: always clean. *)
  let self = Report.compare_suites ~tolerance:5.0 base base in
  Alcotest.(check bool) "self compare ok" false (Report.any_regression self);
  Alcotest.(check int)
    "all runs matched" (List.length base.su_runs)
    (List.length self.cmp_verdicts);
  (* +10% injected cycles: flagged at 5%, tolerated at 15%. *)
  let slower =
    suite
      (List.map
         (fun (r : Report.run) ->
           { r with Report.r_cycles = r.r_cycles + (r.r_cycles / 10) + 1 })
         base.su_runs)
  in
  let flagged = Report.compare_suites ~tolerance:5.0 base slower in
  Alcotest.(check bool)
    "+10%% flagged at 5%% tolerance" true
    (Report.any_regression flagged);
  let tolerated = Report.compare_suites ~tolerance:15.0 base slower in
  Alcotest.(check bool)
    "+10%% tolerated at 15%% tolerance" false
    (Report.any_regression tolerated);
  (* One-sided runs are reported, never failed. *)
  let partial = suite [ List.hd base.su_runs ] in
  let onesided = Report.compare_suites ~tolerance:5.0 base partial in
  Alcotest.(check bool)
    "missing run is not a regression" false
    (Report.any_regression onesided);
  Alcotest.(check int) "missing run reported" 1
    (List.length onesided.cmp_only_base)

let conservation_cases =
  List.map
    (fun (w : W.t) ->
      Alcotest.test_case w.wname `Quick (test_conservation w))
    W.all

let occupancy_cases =
  List.map
    (fun (w : W.t) ->
      Alcotest.test_case w.wname `Quick (test_occupancy_oracle w))
    W.all

let ring_cases =
  List.map
    (fun name ->
      let w = W.find name in
      Alcotest.test_case name `Quick (test_ring_independence w))
    [ "gemm"; "saxpy"; "fib"; "2mm[T]" ]

let () =
  Alcotest.run "counters"
    [ ("conservation", conservation_cases);
      ("ring independence", ring_cases);
      ("occupancy oracle", occupancy_cases);
      ( "bank",
        [ Alcotest.test_case "long unrolled run" `Quick test_long_run;
          Alcotest.test_case "spawn/sync counters" `Quick test_spawn_sync;
          Alcotest.test_case "never-invoked task" `Quick test_never_invoked;
          Alcotest.test_case "finite derived stats" `Quick test_finite_stats ]
      );
      ( "reports",
        [ Alcotest.test_case "json round-trip" `Quick test_report_roundtrip;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 11 |])
            (prop_report_mutation ());
          Alcotest.test_case "regression gate" `Quick test_regression_gate ]
      ) ]
