(* Tests for the design-space explorer: content-keyed configuration
   dedup, job-count-independent determinism, memo-cache reuse,
   analytical pruning soundness, Pareto-frontier minimality, and the
   profiler-guided greedy search. *)

module Dse = Muir_dse.Explore
module Config = Muir_dse.Config
module Cache = Muir_dse.Cache
module Stacks = Muir_opt.Stacks

let saxpy_src =
  {|
global float X[16]; global float Y[16];
func void main() {
  parallel_for (int i = 0; i < 16; i = i + 1) { Y[i] = 2.5 * X[i] + Y[i]; }
  sync;
}|}

let subject () = Muir_pipeline.Pipeline.of_text ~name:"saxpy16" saxpy_src

(* A small grid that still exercises stacks, both knobs and a pass
   toggle — cheap enough to sweep several times per test binary. *)
let small_grid () =
  [ Config.v "baseline";
    Config.v ~banks:1 "loop-stack";
    Config.v ~banks:2 "loop-stack";
    Config.v ~banks:2 ~off:[ "op-fusion" ] "loop-stack";
    Config.v ~tiles:1 ~banks:1 "cilk-stack";
    Config.v ~tiles:2 ~banks:1 "cilk-stack";
    Config.v ~tiles:2 ~banks:2 "cilk-stack" ]

let render (t : Dse.t) : string = Fmt.str "%a" Dse.pp_result t

(* --- registry ------------------------------------------------------- *)

let test_registry () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (Stacks.find_spec name <> None))
    [ "baseline"; "loop-stack"; "cilk-stack"; "tensor-stack"; "best" ];
  Alcotest.(check bool) "unknown stack rejected" true
    (Stacks.find_spec "no-such-stack" = None);
  (* the registry's defaults rebuild exactly the hand-written stacks *)
  let pnames ps = List.map (fun (p : Muir_opt.Pass.t) -> p.pname) ps in
  let check_same name built =
    let spec = Option.get (Stacks.find_spec name) in
    Alcotest.(check (list string))
      (name ^ " = hand-written stack")
      (pnames built)
      (pnames (spec.sp_build spec.sp_defaults))
  in
  check_same "loop-stack" (Stacks.loop_stack ());
  check_same "cilk-stack" (Stacks.cilk_stack ());
  check_same "tensor-stack" (Stacks.tensor_stack ());
  check_same "best" (Stacks.best_loop_stack ())

(* --- content keys --------------------------------------------------- *)

let test_keys_dedup_unused_knobs () =
  (* loop-stack never reads tiles: every tiles value is one config *)
  Alcotest.(check string) "loop-stack ignores tiles"
    (Config.key (Config.v ~tiles:2 ~banks:2 "loop-stack"))
    (Config.key (Config.v ~tiles:8 ~banks:2 "loop-stack"));
  (* ...but the banks knob it does read separates keys *)
  Alcotest.(check bool) "banks distinguishes loop-stack" true
    (Config.key (Config.v ~banks:1 "loop-stack")
    <> Config.key (Config.v ~banks:2 "loop-stack"));
  (* cilk-stack reads tiles, so tiles separates keys *)
  Alcotest.(check bool) "tiles distinguishes cilk-stack" true
    (Config.key (Config.v ~tiles:2 "cilk-stack")
    <> Config.key (Config.v ~tiles:4 "cilk-stack"));
  (* switching off a pass the stack doesn't contain changes nothing *)
  Alcotest.(check string) "irrelevant off entry collapses"
    (Config.key (Config.v "tensor-stack"))
    (Config.key (Config.v ~off:[ "execution-tiling" ] "tensor-stack"));
  (* switching off a member pass makes a new key *)
  Alcotest.(check bool) "op-fusion off is a distinct config" true
    (Config.key (Config.v ~banks:2 "loop-stack")
    <> Config.key (Config.v ~banks:2 ~off:[ "op-fusion" ] "loop-stack"))

(* --- determinism across --jobs -------------------------------------- *)

let test_jobs_determinism () =
  let run jobs =
    Dse.run ~jobs ~grid:(small_grid ()) (subject ())
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check string) "frontier output byte-identical (1 vs 4 jobs)"
    (render a) (render b);
  Alcotest.(check string) "JSON identical (1 vs 4 jobs)" (Dse.to_json a)
    (Dse.to_json b);
  Alcotest.(check int) "same number of evaluations"
    (List.length a.x_evals)
    (List.length b.x_evals)

(* --- memo cache ----------------------------------------------------- *)

let test_cache_no_resimulation () =
  let cache = Cache.create () in
  let run () = Dse.run ~cache ~grid:(small_grid ()) (subject ()) in
  let first = run () in
  Alcotest.(check bool) "first run simulates" true (first.x_fresh_sims > 0);
  let second = run () in
  Alcotest.(check int) "second run: zero fresh simulations" 0
    second.x_fresh_sims;
  Alcotest.(check int) "second run: zero fresh evaluations" 0
    second.x_fresh_evals;
  Alcotest.(check bool) "second run answered from cache" true
    (second.x_cache_hits = List.length (small_grid ()));
  (* the header line differs (simulated vs from-cache counts); the
     frontier itself must not *)
  let keys t = List.map (fun e -> e.Dse.e_key) t.Dse.x_frontier in
  Alcotest.(check (list string)) "same frontier either way" (keys first)
    (keys second);
  Alcotest.(check string) "same best either way"
    (Option.get first.x_best).e_key
    (Option.get second.x_best).e_key

let test_cache_overlap_within_run () =
  (* two configs differing only in an unused knob cost one simulation *)
  let cache = Cache.create () in
  let grid =
    [ Config.v ~tiles:2 ~banks:2 "loop-stack";
      Config.v ~tiles:8 ~banks:2 "loop-stack" ]
  in
  let t = Dse.run ~cache ~grid (subject ()) in
  Alcotest.(check int) "one unique configuration" 1
    (List.length t.x_evals);
  Alcotest.(check int) "one simulation" 1 t.x_fresh_sims

(* --- analytical pruning --------------------------------------------- *)

let test_area_pruning_sound () =
  (* pick a budget between baseline and the widest config *)
  let base = Dse.run ~grid:[ Config.v "baseline" ] (subject ()) in
  let budget = (Option.get base.x_best).e_alms + 1 in
  let t = Dse.run ~area_budget:budget ~grid:(small_grid ()) (subject ()) in
  let prunes = List.filter Dse.pruned t.x_evals in
  Alcotest.(check bool) "something was pruned" true (prunes <> []);
  List.iter
    (fun (e : Dse.eval) ->
      Alcotest.(check bool)
        (Fmt.str "pruned %s exceeds the budget" (Config.label e.e_cfg))
        true
        (e.e_alms > budget))
    prunes;
  List.iter
    (fun (e : Dse.eval) ->
      Alcotest.(check bool) "frontier within budget" true
        (e.e_alms <= budget))
    t.x_frontier;
  Alcotest.(check int) "accounting: sims + pruned = fresh evals"
    t.x_fresh_evals
    (t.x_fresh_sims + t.x_pruned)

(* --- frontier ------------------------------------------------------- *)

let dominates (a : Dse.eval) (b : Dse.eval) =
  match (a.e_cycles, b.e_cycles) with
  | Some ca, Some cb ->
    ca <= cb && a.e_alms <= b.e_alms && (ca < cb || a.e_alms < b.e_alms)
  | _ -> false

let test_frontier_pareto () =
  let t = Dse.run ~grid:(small_grid ()) (subject ()) in
  Alcotest.(check bool) "frontier non-empty" true (t.x_frontier <> []);
  (* no evaluated point strictly dominates a frontier point *)
  List.iter
    (fun f ->
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Fmt.str "%s not dominated by %s" (Config.label f.Dse.e_cfg)
               (Config.label e.Dse.e_cfg))
            false (dominates e f))
        t.x_evals)
    t.x_frontier;
  (* sorted by cycles ascending, area strictly descending *)
  let rec ordered = function
    | a :: (b :: _ as tl) ->
      Option.get a.Dse.e_cycles <= Option.get b.Dse.e_cycles
      && a.Dse.e_alms > b.Dse.e_alms
      && ordered tl
    | _ -> true
  in
  Alcotest.(check bool) "frontier ordered" true (ordered t.x_frontier);
  (* the best point is on the frontier *)
  let best = Option.get t.x_best in
  Alcotest.(check bool) "best on frontier" true
    (List.exists (fun e -> e.Dse.e_key = best.e_key) t.x_frontier)

(* The JSON document parses, and its frontier lists the same points,
   configs and cycles, in the same order. *)
let test_json_frontier () =
  let module J = Muir_trace.Json in
  let t = Dse.run ~grid:(small_grid ()) (subject ()) in
  let cycles j =
    match J.get "cycles" j with J.Null -> None | c -> Some (J.to_int_exn c)
  in
  Alcotest.(check (list (pair string (option int))))
    "JSON frontier"
    (List.map (fun e -> (Config.label e.Dse.e_cfg, e.Dse.e_cycles))
       t.x_frontier)
    (List.map
       (fun j -> (J.to_str_exn (J.get "config" j), cycles j))
       (J.to_list (J.get "frontier" (J.parse (Dse.to_json t)))))

(* --- budget --------------------------------------------------------- *)

let test_eval_budget_respected () =
  let t = Dse.run ~budget_evals:3 ~grid:(small_grid ()) (subject ()) in
  Alcotest.(check bool) "at most 3 fresh evaluations" true
    (t.x_fresh_evals <= 3)

(* --- greedy --------------------------------------------------------- *)

let test_greedy_improves_and_is_deterministic () =
  let run jobs =
    Dse.run ~strategy:Dse.Greedy ~jobs ~budget_evals:12 ~seed:7 (subject ())
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check string) "greedy frontier identical across jobs"
    (render a) (render b);
  (* greedy's seeds include the baseline, so best can only improve *)
  let cycles_of key =
    List.find_opt (fun e -> e.Dse.e_key = key) a.x_evals
  in
  let base = Option.get (cycles_of "baseline") in
  let best = Option.get a.x_best in
  Alcotest.(check bool) "greedy best no worse than baseline" true
    (Option.get best.e_cycles <= Option.get base.e_cycles);
  (* traced seeds carry a profiler hint on a stalled workload *)
  Alcotest.(check bool) "greedy made progress past the seeds" true
    (List.length a.x_evals > List.length Stacks.registry)

let () =
  Alcotest.run "dse"
    [ ( "registry",
        [ Alcotest.test_case "registered stacks" `Quick test_registry ] );
      ( "keys",
        [ Alcotest.test_case "content-keyed dedup" `Quick
            test_keys_dedup_unused_knobs ] );
      ( "determinism",
        [ Alcotest.test_case "jobs=1 vs jobs=4" `Quick
            test_jobs_determinism ] );
      ( "cache",
        [ Alcotest.test_case "no re-simulation" `Quick
            test_cache_no_resimulation;
          Alcotest.test_case "overlap within a run" `Quick
            test_cache_overlap_within_run ] );
      ( "pruning",
        [ Alcotest.test_case "area budget" `Quick test_area_pruning_sound ] );
      ( "frontier",
        [ Alcotest.test_case "pareto-minimal" `Quick test_frontier_pareto;
          Alcotest.test_case "JSON frontier" `Quick test_json_frontier ] );
      ( "budget",
        [ Alcotest.test_case "eval budget" `Quick
            test_eval_budget_respected ] );
      ( "greedy",
        [ Alcotest.test_case "improves deterministically" `Quick
            test_greedy_improves_and_is_deterministic ] ) ]
