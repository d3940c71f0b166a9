(* The static timing oracle's machine-checked contract:

   1. soundness — the whole-run cycle lower bound never exceeds the
      simulator's measured cycles, for every bundled workload under
      every registry stack; and on gemm at baseline the structure the
      profiler blames for the dominant stall is a static binding;
   2. exactness on a closed-form example — examples/divring.mc's
      loop-carried divide ring mu(1) -> steer(2) -> sdiv(13) -> add(2)
      must bound the loop's II at exactly 18;
   3. byte-stable diagnostics — golden renderings for the example
      programs, enabled by Diag's total (severity, task, node, code,
      text) order;
   4. admission-filter transparency — a timing-pruned exploration
      reproduces the unpruned run's frontier and best byte-for-byte
      while simulating strictly less;
   5. one instancing rule — a task below a recursion is instanced on
      demand by the kernel, and the analysis models it that way. *)

module G = Muir_core.Graph
module A = Muir_analysis
module W = Muir_workloads.Workloads
module Stacks = Muir_opt.Stacks

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Resolve bundled examples whether we run from the repo root, from
   test/, or from dune's sandbox (_build/default/test). *)
let example_path name =
  let candidates =
    [ Filename.concat "examples" name;
      Filename.concat "../examples" name;
      Filename.concat "../../examples" name;
      Filename.concat "../../../examples" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate examples/" ^ name)

let compile_example name =
  Muir_frontend.Frontend.compile (read_file (example_path name))

(* --- 1. soundness sweep ------------------------------------------- *)

let test_soundness_sweep () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (s : Stacks.spec) ->
          let p = W.program w in
          let c = Muir_core.Build.circuit ~name:w.wname p in
          let _ = Muir_opt.Pass.run_all (s.sp_build s.sp_defaults) c in
          let bound = A.Timing.bound_cycles c in
          let r = Muir_sim.Sim.run c in
          let measured = r.Muir_sim.Sim.stats.total_cycles in
          Alcotest.(check bool)
            (Fmt.str "%s under %s: bound %d <= measured %d" w.wname
               s.sp_name bound measured)
            true (bound <= measured))
        Stacks.registry)
    W.all

(* The critical-cycle attribution agrees with the profiler: on gemm
   under the queue-bound baseline stack, the structure blamed for the
   dominant stall binds some task's static critical cycle. *)
let test_gemm_blame () =
  let module P = Muir_pipeline.Pipeline in
  let b = P.build (P.of_workload_name "gemm") in
  let c = b.p_circuit in
  let tracer = Muir_trace.Trace.create () in
  let r = P.simulate ~tracer b in
  let prof = Muir_trace.Profile.of_run c ~tracer r.counters in
  match Muir_trace.Profile.dominant_struct prof with
  | None -> Alcotest.fail "gemm baseline: the profiler reports no stalls"
  | Some s ->
    let ranked = A.Timing.rank_bindings (A.Timing.analyze c) (Some s.s_ref) in
    Alcotest.(check bool)
      (Fmt.str "the profiler's dominant stall (%s) is a static binding"
         s.s_name)
      true
      (List.exists (fun (hit, _, _) -> hit) ranked)

(* --- 2. closed-form critical cycle -------------------------------- *)

let test_divring_closed_form () =
  let p = compile_example "divring.mc" in
  let c = Muir_core.Build.circuit p in
  let a = A.Timing.analyze c in
  let lp =
    List.find
      (fun (tt : A.Timing.task_timing) -> tt.tt_name = "main.loop1")
      a.tasks
  in
  (match lp.tt_ii with
  | A.Timing.Bounded { num; den; binding; _ } ->
    Alcotest.(check int) "divide-ring II numerator" 18 num;
    Alcotest.(check int) "divide-ring II denominator" 1 den;
    Alcotest.(check bool)
      "the binding is the dependence ring itself" true
      (binding = A.Timing.Bring)
  | _ -> Alcotest.fail "divide ring not bounded");
  Alcotest.(check (option int)) "static trip count" (Some 256) lp.tt_trips;
  (* The bound must also hold — and the ring must dominate it: 256
     trips through an II-18 ring can't finish faster than the
     recurrence allows. *)
  let r = Muir_sim.Sim.run c in
  Alcotest.(check bool)
    (Fmt.str "bound %d <= measured %d" a.bound
       r.Muir_sim.Sim.stats.total_cycles)
    true
    (a.bound <= r.Muir_sim.Sim.stats.total_cycles);
  Alcotest.(check bool)
    (Fmt.str "ring dominates: bound %d >= 255 traversals" a.bound)
    true
    (a.bound >= 255 * 18)

(* --- 3. golden diagnostics ---------------------------------------- *)

let render_diags example =
  let p = compile_example example in
  let c = Muir_core.Build.circuit p in
  let ds = A.Check.circuit c in
  String.concat "\n" (List.map (Fmt.str "%a" A.Diag.pp) ds)

let test_golden_fib () =
  Alcotest.(check string)
    "fib.mc diagnostics"
    "warning: fib:n13: [buffer] join n13 (merge2): paths from n1 \
     reconverge with depth 6 on port 3 but only 2 slot(s) of buffering \
     on the depth-1 path into port 2; the short path can stall 5 \
     token(s) behind the long one"
    (render_diags "fib.mc")

let test_golden_histogram_racy () =
  Alcotest.(check string)
    "histogram_racy.mc diagnostics"
    "error: main: [race] provable race: concurrent tasks spawned at bb2 \
     (@main_par0) read and write the same address in @BINS on every \
     pair of iterations\n\
     error: main: [race] provable race: concurrent tasks spawned at bb2 \
     (@main_par0) write the same address in @BINS on every pair of \
     iterations\n\
     warning: main_par0:n8: [buffer] join n8 (store@1): paths from n0 \
     reconverge with depth 4 on port 2 but only 2 slot(s) of buffering \
     on the depth-1 path into port 0; the short path can stall 3 \
     token(s) behind the long one"
    (render_diags "histogram_racy.mc")

let test_golden_divring () =
  Alcotest.(check string) "divring.mc diagnostics" ""
    (render_diags "divring.mc")

(* --- 4. pruned exploration is transparent ------------------------- *)

let frontier_fingerprint (t : Muir_dse.Explore.t) : string =
  let module J = Muir_trace.Json in
  let ev = Muir_dse.Explore.eval_to_json in
  J.to_string
    (J.Obj
       [ ("frontier", J.Arr (List.map ev t.x_frontier));
         ("best", Option.fold ~none:J.Null ~some:ev t.x_best) ])

let test_prune_transparent () =
  let subject =
    Muir_pipeline.Pipeline.of_text ~name:"divring"
      (read_file (example_path "divring.mc"))
  in
  (* divring is the one subject with honest pruning geometry: op-fusion
     re-times the divide ring from II 18 to 16, so a fused config's
     *measured* 4112 cycles undercuts an un-fused config's *static
     bound* of 4598 — and the un-fused configs that also pay for
     banking are strictly bigger, hence provably off the frontier
     without simulating.  The first batch (the explorer evaluates in
     batches of 8) simulates the incumbents; the trailing un-fused
     banked configs then fall to the timing filter. *)
  let grid =
    [ Muir_dse.Config.v "baseline";
      Muir_dse.Config.v "cilk-stack";
      Muir_dse.Config.v ~off:[ "op-fusion" ] "cilk-stack";
      Muir_dse.Config.v ~tiles:2 "cilk-stack";
      Muir_dse.Config.v ~banks:2 "cilk-stack";
      Muir_dse.Config.v ~banks:4 "cilk-stack";
      Muir_dse.Config.v ~tiles:2 ~banks:2 "cilk-stack";
      Muir_dse.Config.v ~tiles:2 ~banks:4 "cilk-stack";
      (* --- second batch: all four are timing-prunable ------------- *)
      Muir_dse.Config.v ~banks:2 ~off:[ "op-fusion" ] "cilk-stack";
      Muir_dse.Config.v ~banks:4 ~off:[ "op-fusion" ] "cilk-stack";
      Muir_dse.Config.v ~tiles:2 ~banks:2 ~off:[ "op-fusion" ] "cilk-stack";
      Muir_dse.Config.v ~tiles:2 ~banks:4 ~off:[ "op-fusion" ] "cilk-stack" ]
  in
  (* Fresh caches on both sides: a shared cache would answer the
     second run entirely from memory and prove nothing. *)
  let plain =
    Muir_dse.Explore.run ~cache:(Muir_dse.Cache.create ()) ~grid subject
  in
  let pruned =
    Muir_dse.Explore.run ~timing_prune:true
      ~cache:(Muir_dse.Cache.create ()) ~grid subject
  in
  Alcotest.(check string)
    "identical frontier and best"
    (frontier_fingerprint plain)
    (frontier_fingerprint pruned);
  Alcotest.(check bool)
    (Fmt.str "pruning skipped at least one simulation (%d -> %d, %d \
              timing-pruned)"
       plain.x_fresh_sims pruned.x_fresh_sims pruned.x_timing_pruned)
    true
    (pruned.x_fresh_sims < plain.x_fresh_sims
    && pruned.x_timing_pruned >= 1
    && pruned.x_fresh_sims + pruned.x_timing_pruned + pruned.x_pruned
       = pruned.x_fresh_evals)

(* --- 5. tasks below a recursion ------------------------------------ *)

(* [walk] is called by [main] and by the recursive [rec2], so the
   kernel gives each invocation of it (and of its loops) an instance
   of its own: no call to [walk.loop1] ever waits on that loop's
   queue, and [walk]'s II must not bind it. *)
let walk_src =
  {|
global int R[2];
func int walk(int n) {
  int s = 0;
  for (int i = 0; i < 16; i = i + 1) {
    int x = i + n + 1000000;
    for (int j = 0; j < 8; j = j + 1) { x = x / 3 + 7; }
    s = s + x;
  }
  return s;
}
func int rec2(int n) {
  if (n < 1) { return walk(n); }
  int a = spawn rec2(n - 1);
  sync;
  return a;
}
func void main() { R[0] = walk(3); R[1] = rec2(1); }|}

let test_below_recursion () =
  let c = Muir_core.Build.circuit (Muir_frontend.Frontend.compile walk_src) in
  let a = A.Timing.analyze c in
  let walk =
    List.find (fun (tt : A.Timing.task_timing) -> tt.tt_name = "walk") a.tasks
  in
  (match walk.tt_ii with
  | A.Timing.Bounded { binding; _ } ->
    let name = A.Timing.binding_name c binding in
    if name = "queue:walk.loop1" then
      Alcotest.failf "walk binds %s, a queue no caller waits on" name
  | _ -> Alcotest.fail "walk's II is not bounded");
  let measured = (Muir_sim.Sim.run c).Muir_sim.Sim.stats.total_cycles in
  Alcotest.(check bool)
    (Fmt.str "bound %d <= measured %d" a.bound measured)
    true (a.bound <= measured)

(* msort's [merge] tasks hang below the recursive [msort]: on demand,
   but not recursive, at baseline and under its per-category stack. *)
let test_msort_sets () =
  let w = List.find (fun (w : W.t) -> w.wname = "msort") W.all in
  List.iter
    (fun (label, passes) ->
      let c = Muir_core.Build.circuit ~name:w.wname (W.program w) in
      ignore (Muir_opt.Pass.run_all passes c);
      let s = Muir_core.Cost.instancing c in
      List.iter
        (fun name ->
          let t = List.find (fun (t : G.task) -> t.tname = name) c.tasks in
          Alcotest.(check (pair bool bool))
            (Fmt.str "%s under %s: (on demand, recursive)" name label)
            (true, false)
            (s.on_demand.(t.tid), s.recursive.(t.tid)))
        [ "merge"; "merge.loop1"; "merge.loop8" ])
    [ ("baseline", []);
      ("per-category", Muir_pipeline.Pipeline.per_category w) ]

let () =
  Alcotest.run "timing"
    [ ( "soundness",
        [ Alcotest.test_case "bound <= measured on all workloads x \
                              stacks" `Slow test_soundness_sweep;
          Alcotest.test_case "gemm's dominant stall is a static binding"
            `Quick test_gemm_blame ] );
      ( "closed-form",
        [ Alcotest.test_case "divring II = 18/1" `Quick
            test_divring_closed_form ] );
      ( "golden",
        [ Alcotest.test_case "fib.mc" `Quick test_golden_fib;
          Alcotest.test_case "histogram_racy.mc" `Quick
            test_golden_histogram_racy;
          Alcotest.test_case "divring.mc" `Quick test_golden_divring ] );
      ( "dse",
        [ Alcotest.test_case "timing prune is transparent" `Slow
            test_prune_transparent ] );
      ( "instancing",
        [ Alcotest.test_case "a task below a recursion" `Quick
            test_below_recursion;
          Alcotest.test_case "msort's on-demand tasks" `Quick
            test_msort_sets ] ) ]
