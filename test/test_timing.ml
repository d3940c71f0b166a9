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
      demand by the kernel, and the analysis models it that way;
   6. a golden digest of the static half — Timing.report and every
      Check.circuit diagnostic of each workload under each registry
      stack, one MD5 per workload;
   7. exactness of the cycle-ratio search — Sdf.max_cycle_ratio agrees
      with a brute-force enumeration of simple cycles on random small
      graphs;
   8. the counted bound's restricted graph — a hand-built ring through
      a node that does not fire on every wave, which no registry
      circuit has;
   9. malformed Sdf input is refused — an edge endpoint outside the
      graph, or arrays of unequal length, raise Invalid_argument before
      the unchecked relaxation loop reads them. *)

module G = Muir_core.Graph
module A = Muir_analysis
module W = Muir_workloads.Workloads
module Stacks = Muir_opt.Stacks
module Sdf = Muir_analysis.Sdf

let compile_example name =
  Muir_frontend.Frontend.compile (Sim_harness.read_example name)

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
      (Sim_harness.read_example "divring.mc")
  in
  let grid = Sim_harness.divring_grid () in
  (* A fresh memo on each side: a shared one would answer the second
     run's simulations from memory and prove nothing. *)
  let plain = Muir_dse.Explore.run ~grid subject in
  let pruned = Muir_dse.Explore.run ~timing_prune:true ~grid subject in
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
       + pruned.x_reused
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

(* --- 6. golden digest of the static half ---------------------------- *)

(* Timing.report and every Check.circuit diagnostic (through Diag.pp)
   of one workload under each registry stack at its default knobs. *)
let render_static_half (w : W.t) : string =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  List.iter
    (fun (s : Stacks.spec) ->
      let c = Muir_core.Build.circuit ~name:w.wname (W.program w) in
      ignore (Muir_opt.Pass.run_all (s.sp_build s.sp_defaults) c);
      Fmt.pf ppf "== %s@.%a@." s.sp_name (A.Timing.report c)
        (A.Timing.analyze c);
      List.iter (fun d -> Fmt.pf ppf "%a@." A.Diag.pp d) (A.Check.circuit c))
    Stacks.registry;
  Format.pp_print_flush ppf ();
  Buffer.contents b

(* One MD5 of [render_static_half] per workload, so a failure names
   the workload.  A change meant to move the static half's output
   re-pins these on purpose. *)
let static_half_digests =
  [ ("gemm", "3a0a9ef4ca7e9c2c64f25e58573fdfca");
    ("covar", "9c4e0c34e0aaec1d0d320902896b766f");
    ("fft", "644e2bc5d7420e5b1a0c364e65b42938");
    ("fft-buf", "f36263afb4293f9cfd884d3f59ad722b");
    ("spmv", "ca4a0d40afd29bb40b50fe41ade3ace1");
    ("2mm", "4827d553761a23d23ee63f7f4beedcf2");
    ("3mm", "46aeb7b70909b8899fe340d5d16cbf9c");
    ("fib", "60c2f3be6dd30f2c28ca4a8145518d25");
    ("msort", "61766931606b786a5142dc301fa25472");
    ("saxpy", "55a38e52b4896392839ccff348185c08");
    ("stencil", "0a866c0a9f8a1cd818f1ce4e435ee094");
    ("img-scale", "37d9634925a27868c4c541854b7e2c05");
    ("conv", "9bc6fe4e7d81cf3662e1f2de73e53588");
    ("dense8", "4a5ce27fe4c3d29b61e14177bc356067");
    ("dense16", "d19c5c93743884acf572222a52650f5c");
    ("softm8", "d70ac8d4e858bb1f20bd7bc5415137e3");
    ("softm16", "785d5f13d485e19fc758bf7780ab3450");
    ("relu[T]", "5a2e5452fac7fad9646412411c7a7d52");
    ("2mm[T]", "87e7ce5efbb7ce8fe9aca4e0b365e7bb");
    ("conv[T]", "c4dafb0fe6ee0025b36826e7f8c39009");
    ("rgb2yuv", "7a353a89fb1dbf99dc4e298986793dbf");
    ("conv1d", "e90abdedd273df4411b8d8ac4996d9f9");
    ("mlp", "8bc1dc972967e8b2592b07c8951cb939");
    ("lenet", "7624923385eef3390f39aaa9ef62a31e") ]

let test_static_half_digest () =
  Alcotest.(check (list string))
    "one digest per workload"
    (List.map (fun (w : W.t) -> w.wname) W.all)
    (List.map fst static_half_digests);
  List.iter
    (fun (w : W.t) ->
      let got = Digest.to_hex (Digest.string (render_static_half w)) in
      Alcotest.(check string)
        (Fmt.str "%s: static-half digest over %d stacks" w.wname
           (List.length Stacks.registry))
        (List.assoc w.wname static_half_digests)
        got)
    W.all

(* --- 7. Sdf exactness ------------------------------------------------ *)

(* Every simple cycle of a small multigraph, as edge lists in
   traversal order: each is found once, from its least node.  Graphs
   with self-loops and parallel edges are drawn on purpose: a self-loop
   met below the root of the cycle search must come back alone, not
   with the DFS path down to it. *)
let simple_cycles (n : int) (edges : unit Sdf.edge list) :
    unit Sdf.edge list list =
  let found = ref [] in
  for s = 0 to n - 1 do
    let rec walk v seen path =
      List.iter
        (fun (e : unit Sdf.edge) ->
          if e.esrc = v then
            if e.edst = s then found := List.rev (e :: path) :: !found
            else if e.edst > s && not (List.mem e.edst seen) then
              walk e.edst (e.edst :: seen) (e :: path))
        edges
    in
    walk s [ s ] []
  done;
  !found

(* The result's cycle is made of input edges, consecutive and closed. *)
let is_input_cycle edges (cyc : unit Sdf.edge list) =
  cyc <> []
  && List.for_all (fun e -> List.memq e edges) cyc
  &&
  let arr = Array.of_list cyc in
  let k = Array.length arr in
  Array.for_all Fun.id
    (Array.init k (fun i -> arr.(i).Sdf.edst = arr.((i + 1) mod k).Sdf.esrc))

let sdf_graph_gen =
  QCheck.Gen.(
    int_range 1 6 >>= fun n ->
    list_size (int_range 0 12)
      (map
         (fun (((s, d), w), m) ->
           { Sdf.esrc = s; edst = d; ew = w; em = m; etag = () })
         (pair
            (pair (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
               (int_range 0 9))
            (int_range 0 3)))
    >|= fun es -> (n, es))

let print_sdf_graph (n, es) =
  Fmt.str "n=%d %a" n
    Fmt.(list ~sep:sp (fun ppf (e : unit Sdf.edge) ->
             pf ppf "%d->%d(w%d,m%d)" e.esrc e.edst e.ew e.em))
    es

let prop_sdf_exact =
  QCheck.Test.make ~count:500
    ~name:"max_cycle_ratio equals brute force on small graphs"
    (QCheck.make ~print:print_sdf_graph sdf_graph_gen)
    (fun (n, edges) ->
      let cycles = simple_cycles n edges in
      match Sdf.max_cycle_ratio n edges with
      | Sdf.Acyclic -> cycles = []
      | Sdf.Unbounded cyc ->
        is_input_cycle edges cyc
        && snd (Sdf.cycle_sums cyc) = 0
        && List.exists (fun c -> snd (Sdf.cycle_sums c) = 0) cycles
      | Sdf.Ratio { num; den; cyc } ->
        let sums = List.map Sdf.cycle_sums cycles in
        let bw, bm =
          List.fold_left
            (fun (bw, bm) (w, m) -> if w * bm > bw * m then (w, m) else (bw, bm))
            (List.hd sums) (List.tl sums)
        in
        let cw, cm = Sdf.cycle_sums cyc in
        List.for_all (fun (_, m) -> m > 0) sums
        && den > 0
        && Sdf.gcd num den = 1
        && num * bm = bw * den
        && is_input_cycle edges cyc
        && cw * den = num * cm)

(* --- 8. the restricted graph ------------------------------------------ *)

(* The whole-run charge solves the task graph restricted to every-wave
   nodes.  A compute fed by a steer output fires only on the steer's
   side, so restriction drops it.  Here [%0]'s next-value steer feeds
   the mu's back port through a hand-inserted pass-through (n11): the
   reported II cycle runs through it (II 6), while the counted bound
   charges the loop-condition ring instead (7 traversals x 3 = 21, not
   7 x 6). *)
let restricted_src =
  {|
global int A[8];
func void main() {
  for (int i = 0; i < 8; i = i + 1) {
    A[i] = i;
  }
}|}

let test_restricted_ring () =
  let c =
    Muir_core.Build.circuit (Muir_frontend.Frontend.compile restricted_src)
  in
  let t = G.task c 1 in
  let next =
    List.find (fun (n : G.node) -> n.label = "steer.next %0") t.nodes
  in
  let e = List.find (fun (e : G.edge) -> fst e.src = next.nid) t.edges in
  let mu_back = e.dst in
  let pass =
    G.add_node t ~ty:next.nty (G.Compute G.Fident) ~nins:1 ~label:"hand"
  in
  e.dst <- (pass.nid, 0);
  ignore (G.connect t ~src:(pass.nid, 0) ~dst:mu_back);
  Alcotest.(check (list string)) "validates clean" []
    (List.map (Fmt.str "%a" Muir_core.Validate.pp_error)
       (Muir_core.Validate.validate c));
  Alcotest.(check string) "Timing.report"
    "static timing of accelerator:\n\
    \  main             II>=28  binds queue:main.loop1  cycle n1 ninv=1  \
     rmin=29 bound=0\n\
    \  main.loop1       II>=6  binds dataflow ring  cycle n7 -> n10 -> n11 \
     -> n2  trips=8 ninv=1  rmin=28 bound=21\n\
    \  whole-run lower bound: 29 cycles"
    (Fmt.str "%a" (A.Timing.report c) (A.Timing.analyze c))

(* --- 9. malformed Sdf input ------------------------------------------- *)

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: no exception" name
  | exception Invalid_argument _ -> ()

let test_sdf_bad_input () =
  let e s d m = { Sdf.esrc = s; edst = d; ew = 1; em = m; etag = () } in
  let ring = [ e 0 1 1; e 1 0 1 ] in
  List.iter
    (fun (name, edges) ->
      raises_invalid name (fun () -> Sdf.max_cycle_ratio 2 edges))
    [ ("source below 0", e (-1) 0 1 :: ring);
      ("source at n", ring @ [ e 2 0 1 ]);
      ("target below 0", ring @ [ e 1 (-1) 1 ]);
      ("target at n", e 0 2 1 :: ring);
      ("target far beyond n", ring @ [ e 0 1000 1 ]);
      (* the zero-token search alone would never read this edge *)
      ("behind a zero-token cycle", [ e 0 0 0; e 0 5 1 ]) ];
  let pc name ~src ~dst ~cost =
    raises_invalid name (fun () -> Sdf.positive_cycle 2 ~src ~dst ~cost)
  in
  pc "dst shorter" ~src:[| 0; 1 |] ~dst:[| 1 |] ~cost:[| 1; 1 |];
  pc "cost shorter" ~src:[| 0; 1 |] ~dst:[| 1; 0 |] ~cost:[| 1 |];
  pc "cost longer" ~src:[| 0; 1 |] ~dst:[| 1; 0 |] ~cost:[| 1; 1; 1 |];
  pc "src shorter" ~src:[| 0 |] ~dst:[| 1; 0 |] ~cost:[| 1; 1 |];
  pc "endpoint at n" ~src:[| 0; 2 |] ~dst:[| 1; 0 |] ~cost:[| 1; 1 |];
  pc "endpoint below 0" ~src:[| 0; 1 |] ~dst:[| -1; 0 |] ~cost:[| 1; 1 |]

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
          Alcotest.test_case "divring.mc" `Quick test_golden_divring;
          Alcotest.test_case "static half of workloads x stacks" `Quick
            test_static_half_digest ] );
      ( "sdf",
        [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |])
            prop_sdf_exact;
          Alcotest.test_case "malformed input is refused" `Quick
            test_sdf_bad_input ] );
      ( "dse",
        [ Alcotest.test_case "timing prune is transparent" `Slow
            test_prune_transparent ] );
      ( "instancing",
        [ Alcotest.test_case "a task below a recursion" `Quick
            test_below_recursion;
          Alcotest.test_case "msort's on-demand tasks" `Quick
            test_msort_sets ] );
      ( "restricted",
        [ Alcotest.test_case "a ring through a steer-fed compute" `Quick
            test_restricted_ring ] ) ]
