(* Simulator conformance tests: every circuit must reproduce the
   golden interpreter's memory and return value, cycle counts must be
   sane, and the memory system must keep its accounting straight. *)

open Sim_harness

let test_saxpy () =
  let r =
    check_against_golden "saxpy" ~globals:[ "Y" ]
      ~inits:[ ("X", farr (List.init 8 float_of_int)) ]
      {|
global float X[8]; global float Y[8];
func void main() {
  for (int i = 0; i < 8; i = i + 1) { Y[i] = 2.5 * X[i] + Y[i]; }
}|}
  in
  Alcotest.(check bool) "ran some cycles" true (r.stats.cycles > 10)

let test_gemm () =
  ignore
    (check_against_golden "gemm" ~globals:[ "C" ]
       ~inits:
         [ ("A", farr (List.init 16 (fun i -> float_of_int (i mod 5))));
           ("B", farr (List.init 16 (fun i -> float_of_int ((i mod 3) - 1))))
         ]
       {|
global float A[16]; global float B[16]; global float C[16];
func void main() {
  for (int i = 0; i < 4; i = i + 1) {
    for (int j = 0; j < 4; j = j + 1) {
      float acc = 0.0;
      for (int k = 0; k < 4; k = k + 1) { acc = acc + A[i*4+k] * B[k*4+j]; }
      C[i*4+j] = acc;
    }
  }
}|})

let test_parallel_for () =
  ignore
    (check_against_golden "parallel saxpy" ~globals:[ "Y" ]
       ~inits:[ ("X", farr (List.init 32 float_of_int)) ]
       {|
global float X[32]; global float Y[32];
func void main() {
  float a = 3.0;
  parallel_for (int i = 0; i < 32; i = i + 1) { Y[i] = a * X[i] + 1.0; }
  sync;
}|})

let test_fib_recursion () =
  let r =
    check_against_golden "fib" ~globals:[]
      {|
func int fib(int n) {
  if (n < 2) { return n; }
  int a = spawn fib(n - 1);
  int b = spawn fib(n - 2);
  sync;
  return a + b;
}
func int main() { int r = fib(12); return r; }|}
  in
  Alcotest.check value_testable "fib(12)" (Muir_ir.Types.vint 144) r.value

let test_mergesort_like () =
  (* recursive spawn + a called merge loop: the dynamic-task path *)
  ignore
    (check_against_golden "msort" ~globals:[ "A" ]
       ~inits:
         [ ("A", farr [ 7.; 3.; 9.; 1.; 5.; 2.; 8.; 6. ]) ]
       {|
global float A[8];
global float TMP[8];
func void merge(int lo, int mid, int hi) {
  int i = lo; int j = mid; int k = lo;
  while (k < hi) {
    bool takei = j >= hi || (i < mid && A[i] <= A[j]);
    if (takei) { TMP[k] = A[i]; i = i + 1; }
    else       { TMP[k] = A[j]; j = j + 1; }
    k = k + 1;
  }
  for (int t = lo; t < hi; t = t + 1) { A[t] = TMP[t]; }
}
func void msort(int lo, int hi) {
  if (hi - lo < 2) { return; }
  int mid = (lo + hi) / 2;
  spawn msort(lo, mid);
  spawn msort(mid, hi);
  sync;
  merge(lo, mid, hi);
}
func void main() { msort(0, 8); }|})

let test_predication () =
  ignore
    (check_against_golden "predication" ~globals:[ "O" ]
       {|
global int O[16];
func void main() {
  for (int i = 0; i < 16; i = i + 1) {
    int v = 0;
    if (i % 3 == 0) { v = i * 2; }
    else { if (i % 3 == 1) { v = i + 50; } else { v = 7; } }
    O[i] = v;
  }
}|})

let test_tensor_ops () =
  ignore
    (check_against_golden "tiles" ~globals:[ "C" ]
       ~inits:
         [ ("A", farr (List.init 16 (fun i -> float_of_int (i + 1))));
           ("B", farr (List.init 16 (fun i -> float_of_int ((i mod 4) + 1))))
         ]
       {|
global float A[16]; global float B[16]; global float C[16];
func void main() {
  for (int ti = 0; ti < 2; ti = ti + 1) {
    for (int tj = 0; tj < 2; tj = tj + 1) {
      tile acc = tmul(tload(A, ti*8, 4), tload(B, tj*2, 4));
      tile acc2 = tadd(acc, tmul(tload(A, ti*8+2, 4), tload(B, tj*2+8, 4)));
      tstore(C, ti*8+tj*2, 4, acc2);
    }
  }
}|})

let test_memory_carried_dependence () =
  (* O[0] accumulates across iterations through memory: the ordering
     chain must serialize it. *)
  ignore
    (check_against_golden "memory accumulation" ~globals:[ "O" ]
       ~inits:[ ("X", farr [ 1.; 2.; 3.; 4.; 5. ]) ]
       {|
global float X[5]; global float O[1];
func void main() {
  O[0] = 0.0;
  for (int i = 0; i < 5; i = i + 1) { O[0] = O[0] + X[i]; }
}|})

let test_indirection () =
  ignore
    (check_against_golden "spmv" ~globals:[ "Y" ]
       ~inits:
         [ ("ROWPTR", iarr [ 0; 2; 4; 6; 8 ]);
           ("COLS", iarr [ 0; 1; 1; 2; 2; 3; 0; 3 ]);
           ("VALS", farr [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. ]);
           ("X", farr [ 1.; 2.; 3.; 4. ]) ]
       {|
global int ROWPTR[5]; global int COLS[8]; global float VALS[8];
global float X[4]; global float Y[4];
func void main() {
  for (int r = 0; r < 4; r = r + 1) {
    float acc = 0.0;
    for (int k = ROWPTR[r]; k < ROWPTR[r+1]; k = k + 1) {
      acc = acc + VALS[k] * X[COLS[k]];
    }
    Y[r] = acc;
  }
}|})

let test_cache_stats () =
  let p =
    program
      ~inits:[ ("X", farr (List.init 64 float_of_int)) ]
      {|
global float X[64]; global float Y[64];
func void main() {
  for (int i = 0; i < 64; i = i + 1) { Y[i] = X[i] + 1.0; }
}|}
  in
  let r = simulate p in
  let l1 =
    List.find (fun (s : Muir_sim.Memsys.struct_stats) -> s.ss_name = "l1")
      r.stats.mem
  in
  (* 64 loads + 64 stores; 8-word lines: 16 cold lines, at most half
     of which miss thanks to the next-line prefetcher. *)
  Alcotest.(check int) "accesses" 128 l1.ss_accesses;
  Alcotest.(check bool) "some cold misses" true (l1.ss_misses > 0);
  Alcotest.(check bool) "prefetch hides most cold lines" true
    (l1.ss_misses <= 8);
  Alcotest.(check int) "hits + misses = accesses" 128
    (l1.ss_hits + l1.ss_misses)

let test_deadlock_detection () =
  (* An empty-capacity circuit can't run; instead test the cycle cap on
     a long loop. *)
  let p =
    program
      {|
func int main() {
  int s = 0;
  for (int i = 0; i < 100000; i = i + 1) { s = s + i; }
  return s;
}|}
  in
  match simulate ~max_cycles:500 p with
  | exception Muir_sim.Sim.Cycle_limit _ -> ()
  | _ -> Alcotest.fail "expected Cycle_limit"

let test_dma_accounting () =
  let p =
    program ~inits:[ ("X", farr (List.init 64 float_of_int)) ]
      {|
global float X[64]; global float Y[64];
func void main() {
  for (int i = 0; i < 64; i = i + 1) { Y[i] = X[i] * 2.0; }
}|}
  in
  let r =
    simulate ~passes:[ Muir_opt.Structural.localization_pass () ] p
  in
  (* 128 scratchpad words at 8 words/cycle *)
  Alcotest.(check int) "dma cycles" 16 r.stats.dma_cycles;
  Alcotest.(check int) "total = cycles + dma" r.stats.total_cycles
    (r.stats.cycles + r.stats.dma_cycles)

(* Kernel equivalence: the event-driven kernel must be bit-for-bit
   cycle-accurate against the dense-sweep seed kernel.  The constants
   below are total_cycles/fires recorded from the seed on every
   bundled workload; any wake-discipline bug that lets a node fire a
   cycle early/late, or reorders firings within a cycle, shifts these
   numbers.  Functional outputs are checked against the golden
   interpreter in the same run. *)

module W = Muir_workloads.Workloads

let seed_golden =
  [ ("gemm", 46136, 104811);
    ("covar", 14927, 31120);
    ("fft", 12952, 19131);
    ("fft-buf", 7752, 14886);
    ("spmv", 7017, 8591);
    ("2mm", 42274, 91557);
    ("3mm", 37678, 81691);
    ("fib", 15144, 27626);
    ("msort", 8479, 27894);
    ("saxpy", 8276, 8205);
    ("stencil", 36765, 89333);
    ("img-scale", 13819, 34117);
    ("conv", 36756, 84599);
    ("dense8", 12815, 28699);
    ("dense16", 24583, 57179);
    ("softm8", 4949, 8976);
    ("softm16", 8764, 16912);
    ("relu[T]", 2105, 1451);
    ("2mm[T]", 3906, 4485);
    ("conv[T]", 4064, 4875);
    ("rgb2yuv", 3300, 4390);
    ("conv1d", 11498, 21013);
    ("mlp", 7620, 10366);
    ("lenet", 219204, 640108) ]

let test_kernel_equivalence (w : W.t) () =
  let p = W.program w in
  let _, gold, _ = Muir_ir.Interp.run p in
  let c = Muir_core.Build.circuit ~name:w.wname p in
  let r = Muir_sim.Sim.run c in
  (match
     List.find_opt (fun (n, _, _) -> n = w.wname) seed_golden
   with
  | Some (_, cycles, fires) ->
    Alcotest.(check int)
      (w.wname ^ ": total_cycles == seed kernel")
      cycles r.stats.total_cycles;
    Alcotest.(check int) (w.wname ^ ": fires == seed kernel") fires
      r.stats.fires
  | None ->
    Alcotest.failf
      "workload %s has no recorded seed-kernel golden numbers — run it \
       through the kernel and add (name, total_cycles, fires) to \
       seed_golden"
      w.wname);
  (match Muir_ir.Memory.first_mismatch p w.outputs ~golden:gold r.memory with
  | None -> ()
  | Some (g, i, x, y) ->
    Alcotest.failf "%s: %s[%d] golden=%s sim=%s" w.wname g i
      (Muir_ir.Types.value_to_string x) (Muir_ir.Types.value_to_string y));
  (* Determinism and tracing-neutrality in one shot: a second run of
     the same circuit build — this time with the tracer attached —
     must land on exactly the same cycle and fire counts.  Tracing is
     strictly passive, and the worklists have no hidden
     hash/iteration-order dependence. *)
  let c2 = Muir_core.Build.circuit ~name:w.wname p in
  let tracer = Muir_trace.Trace.create () in
  let r2 = Muir_sim.Sim.run ~tracer c2 in
  Alcotest.(check int)
    (w.wname ^ ": deterministic across runs (traced)")
    r.stats.total_cycles r2.stats.total_cycles;
  Alcotest.(check int)
    (w.wname ^ ": fires unchanged by tracing")
    r.stats.fires r2.stats.fires

let equivalence_cases =
  List.map
    (fun (w : W.t) ->
      Alcotest.test_case w.wname `Quick (test_kernel_equivalence w))
    W.all

(* The kernel runs what validation admits.  Validation indexes node
   ids by the largest present, so a node id at or above its task's
   [next_nid] is clean; the kernel reads the same index.  Lowering one
   saxpy task's [next_nid] below its largest id changes nothing a run
   reads. *)
let test_ids_above_next_nid () =
  let w = W.find "saxpy" in
  let build () = Muir_core.Build.circuit ~name:w.wname (W.program w) in
  let summary (r : Muir_sim.Sim.result) =
    (r.stats.total_cycles, r.stats.fires, Muir_ir.Types.value_to_string r.value)
  in
  let want = summary (Muir_sim.Sim.run (build ())) in
  let c = build () in
  let t =
    List.find
      (fun (t : Muir_core.Graph.task) ->
        List.exists
          (fun (n : Muir_core.Graph.node) -> n.nid = t.next_nid - 1)
          t.nodes)
      c.tasks
  in
  t.next_nid <- t.next_nid - 1;
  Alcotest.(check (list string)) "validates clean" []
    (List.map (Fmt.str "%a" Muir_core.Validate.pp_error)
       (Muir_core.Validate.validate c));
  Alcotest.(check (triple int int string))
    (Fmt.str "%s: cycles, fires and return value" t.tname)
    want
    (summary (Muir_sim.Sim.run c))

(* Zero-allocation guard: the steady-state fire path must not touch the
   minor heap.  [Sim.run] samples the minor-word counter every 4096
   cycles and reports the rate over the second half of the run, past
   construction warm-up; 0.05 words/cycle of slack covers the sampling
   itself.  Minor-heap allocation is deterministic, so this does not
   flake. *)
let test_zero_alloc name () =
  let w = W.find name in
  let c = Muir_core.Build.circuit ~name:w.wname (W.program w) in
  let rate = (Muir_sim.Sim.run c).stats.gc_minor_words_per_cycle in
  if rate >= 0.05 then
    Alcotest.failf
      "%s steady state allocates %.4f minor words/cycle (limit 0.05)" name
      rate

(* Construction allocation.  An instance is a slot of its task's
   columns, not a graph of small blocks, so [Sim.create] + [start] over
   the 48 suite pairs (registry workload x {baseline, per-category})
   allocates at most 2.60 M minor words, half of what per-instance
   blocks took (5.20 M), and a fresh fib or msort context at most half
   of its 2 572 / 2 849 words.  A context's share is bounded from above
   by the minor words of stepping its baseline run over the contexts
   made fresh; column growth, which doubles past the minor heap's
   block limit, allocates in the major heap and is not counted.
   Minor-heap allocation is deterministic, so this does not flake. *)
let test_construction_alloc () =
  let module S = Muir_sim.Sim in
  let build (w : W.t) passes =
    let c = Muir_core.Build.circuit ~name:w.wname (W.program w) in
    ignore (Muir_opt.Pass.run_all passes c);
    c
  in
  let words = ref 0.0 in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun passes ->
          let c = build w passes in
          let m0 = Gc.minor_words () in
          S.start (S.create c) [];
          words := !words +. (Gc.minor_words () -. m0))
        [ []; Muir_pipeline.Pipeline.per_category w ])
    W.all;
  if !words > 2.60e6 then
    Alcotest.failf "Sim.create + start over the suite: %.0f minor words \
                    (limit 2.60 M)" !words;
  List.iter
    (fun (name, limit) ->
      let sim = S.create (build (W.find name) []) in
      S.start sim [];
      let n0 = sim.next_iid and m0 = Gc.minor_words () in
      while not sim.root_done do
        S.step sim
      done;
      let per = (Gc.minor_words () -. m0) /. float_of_int (sim.next_iid - n0) in
      if per > limit then
        Alcotest.failf "a fresh %s context: %.0f minor words (limit %.0f)"
          name per limit)
    [ ("fib", 2572.0 /. 2.0); ("msort", 2849.0 /. 2.0) ]

(* Oracles over the kernel's incremental counts: after every cycle of
   every registry workload under baseline and best, [check] compares
   each live instance's count with a recount from the state it
   summarizes. *)
let oracle (check : Muir_sim.Sim.instance -> (string * int * int) option)
    (w : W.t) () =
  let best =
    match Muir_opt.Stacks.find_spec "best" with
    | Some sp -> sp.sp_build sp.sp_defaults
    | None -> Alcotest.fail "registry lost stack best"
  in
  List.iter
    (fun (sname, passes) ->
      let c = Muir_core.Build.circuit ~name:w.wname (W.program w) in
      ignore (Muir_opt.Pass.run_all passes c);
      let sim = Muir_sim.Sim.create c in
      Muir_sim.Sim.start sim [];
      let check_all () =
        for k = 0 to sim.next_iid - 1 do
          let inst = sim.insts.(k) in
          if inst.live then
            match check inst with
            | Some (what, got, want) ->
              Alcotest.failf
                "%s/%s cycle %d: task %s instance %d: %s is %d, recount \
                 says %d"
                w.wname sname sim.now inst.it.tname inst.iid what got want
            | None -> ()
        done
      in
      check_all ();
      while (not sim.root_done) && sim.now < 20_000_000 do
        Muir_sim.Sim.step sim;
        check_all ()
      done;
      Alcotest.(check bool) (w.wname ^ "/" ^ sname ^ ": finished") true
        sim.root_done)
    [ ("baseline", []); ("best", best) ]

(* Readiness: a node's [nd_miss] counts its wired inputs whose channel
   holds no committed token, kept up to date by the commits and pops
   that move those channels. *)
let rec recount_miss (ins : int option array) (i : int) (k : int) : int =
  if i = Array.length ins then k
  else
    match ins.(i) with
    | Some 0 -> recount_miss ins (i + 1) (k + 1)
    | _ -> recount_miss ins (i + 1) k

let readiness (inst : Muir_sim.Sim.instance) =
  let module S = Muir_sim.Sim in
  List.fold_left
    (fun bad i ->
      let want = recount_miss (S.input_tokens inst i) 0 0 in
      let got = S.node_miss inst i in
      match bad with
      | None when got <> want ->
        Some (Fmt.str "node n%d nd_miss" (S.node_nid inst i), got, want)
      | _ -> bad)
    None
    (List.init (S.node_count inst) Fun.id)

(* Completion gate: [i_full] counts the inflight invocations whose
   live-out tuple is complete; completion is only attempted while it is
   positive. *)
let completion_gate (inst : Muir_sim.Sim.instance) =
  let want = ref 0 in
  for w = inst.i_lo to inst.next_wave - 1 do
    if
      Muir_sim.Sim.wv_mem inst w
      && Muir_sim.Sim.lo_ready_from (Muir_sim.Sim.wv_get inst w) inst.i_nres 0
    then incr want
  done;
  if inst.i_full <> !want then Some ("i_full", inst.i_full, !want) else None

let oracle_cases check =
  List.map
    (fun (w : W.t) -> Alcotest.test_case w.wname `Quick (oracle check w))
    W.all

(* Properties *)

let prop_sim_matches_interp_random_saxpy =
  QCheck.Test.make ~count:15 ~name:"sim == interp on random saxpy sizes"
    QCheck.(int_range 1 40)
    (fun n ->
      let src =
        Fmt.str
          {|
global float X[%d]; global float Y[%d];
func void main() {
  for (int i = 0; i < %d; i = i + 1) { Y[i] = 2.0 * X[i] + Y[i]; }
}|}
          n n n
      in
      let p =
        program
          ~inits:[ ("X", farr (List.init n (fun i -> float_of_int i *. 0.5))) ]
          src
      in
      let _, gold, _ = golden p in
      let r = simulate p in
      let a = Muir_ir.Memory.dump_global gold p "Y" in
      let b = Muir_ir.Memory.dump_global r.memory p "Y" in
      Array.for_all2 Muir_ir.Types.value_close a b)

let prop_fib_matches =
  QCheck.Test.make ~count:8 ~name:"sim fib == closed form"
    QCheck.(int_range 0 12)
    (fun n ->
      let src =
        Fmt.str
          {|
func int fib(int n) {
  if (n < 2) { return n; }
  int a = spawn fib(n - 1);
  int b = spawn fib(n - 2);
  sync;
  return a + b;
}
func int main() { int r = fib(%d); return r; }|}
          n
      in
      let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) in
      let r = simulate (program src) in
      Muir_ir.Types.value_close r.value (Muir_ir.Types.vint (fib n)))

(* The kernel's flat control-token test is the Types rule the
   analyses read, on every kind of value a token can hold. *)
let test_truthy_flat () =
  let module T = Muir_ir.Types in
  let module F = Muir_ir.Flat in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (T.value_to_string v) (T.truthy v)
        (Muir_sim.Exec.truthy_flat (F.tag_of v) (F.num_of v) (F.obj_of v)))
    [ T.VBool true; T.VBool false; T.vint 0; T.vint 1; T.vint (-5);
      T.VInt 0x40000000L; T.VInt (-0x40000001L); T.VInt Int64.max_int;
      T.VInt Int64.min_int; T.VFloat 0.0; T.VFloat 1.5;
      T.VTensor [| 1.0 |]; T.VPoison; T.VUnit ]

let () =
  Alcotest.run "sim"
    [ ( "conformance",
        [ Alcotest.test_case "saxpy" `Quick test_saxpy;
          Alcotest.test_case "gemm" `Quick test_gemm;
          Alcotest.test_case "parallel_for" `Quick test_parallel_for;
          Alcotest.test_case "fib recursion" `Quick test_fib_recursion;
          Alcotest.test_case "mergesort" `Quick test_mergesort_like;
          Alcotest.test_case "predication" `Quick test_predication;
          Alcotest.test_case "tensor ops" `Quick test_tensor_ops;
          Alcotest.test_case "memory-carried dep" `Quick
            test_memory_carried_dependence;
          Alcotest.test_case "indirection" `Quick test_indirection ] );
      ( "machinery",
        [ Alcotest.test_case "cache stats" `Quick test_cache_stats;
          Alcotest.test_case "cycle limit" `Quick test_deadlock_detection;
          Alcotest.test_case "dma accounting" `Quick test_dma_accounting;
          Alcotest.test_case "control-token truth" `Quick test_truthy_flat;
          Alcotest.test_case "node ids at or above next_nid" `Quick
            test_ids_above_next_nid ]
      );
      ("kernel-equivalence", equivalence_cases);
      ( "zero-allocation",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_zero_alloc name))
          [ "gemm"; "fib" ] );
      ( "construction-allocation",
        [ Alcotest.test_case "suite and contexts" `Quick
            test_construction_alloc ] );
      ("readiness-oracle", oracle_cases readiness);
      ("completion-gate-oracle", oracle_cases completion_gate);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sim_matches_interp_random_saxpy; prop_fib_matches ] ) ]
