(* Self-tests of the benchmark: seeded sequences, exact counts, and the
   tail-percentile rule.  Run with `dune test perfbench`. *)

open Perfbench_lib

let ints = Alcotest.(array int)

let test_same_seed_same_sequence () =
  let xs = Array.init 48 Fun.id in
  Alcotest.check ints "shuffle" (Plan.shuffle ~seed:7 ~round:3 xs)
    (Plan.shuffle ~seed:7 ~round:3 xs);
  Alcotest.(check (array (pair int bool)))
    "serve sequence"
    (Plan.serve_sequence ~seed:7 ~round:0 ~copies:4 96)
    (Plan.serve_sequence ~seed:7 ~round:0 ~copies:4 96)

let test_other_seed_same_multiset () =
  let xs = Array.init 48 Fun.id in
  let a = Plan.shuffle ~seed:1 ~round:0 xs and b = Plan.shuffle ~seed:2 ~round:0 xs in
  Alcotest.(check bool) "different order" true (a <> b);
  Alcotest.check ints "same multiset" (Plan.sorted a) (Plan.sorted b);
  let keys s =
    Array.map fst (Plan.serve_sequence ~seed:s ~round:0 ~copies:4 96)
  in
  Alcotest.(check bool) "different serve order" true (keys 1 <> keys 2);
  Alcotest.check ints "same serve multiset" (Plan.sorted (keys 1))
    (Plan.sorted (keys 2))

let test_serve_hit_ratio () =
  List.iter
    (fun seed ->
      let seq = Plan.serve_sequence ~seed ~round:0 ~copies:4 384 in
      let fresh = Array.fold_left (fun n (_, f) -> if f then n + 1 else n) 0 seq in
      Alcotest.(check int) "one fresh per key" 384 fresh;
      Alcotest.(check int) "requests" 1536 (Array.length seq);
      (* every repeat follows its key's fresh request *)
      let seen = Array.make 384 false in
      Array.iter
        (fun (k, f) ->
          Alcotest.(check bool) "fresh iff first" (not seen.(k)) f;
          seen.(k) <- true)
        seq)
    [ 1; 2; 99 ]

let test_serve_keys_distinct () =
  let keys = Serve_mix.keys () in
  let ids =
    Array.to_list
      (Array.map
         (fun (k : Serve_mix.key) ->
           ( k.k_workload,
             Muir_dse.Config.key
               (Muir_dse.Config.v ~tiles:k.k_tiles ~banks:k.k_banks k.k_stack) ))
         keys)
  in
  Alcotest.(check int) "distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check int) "24 workloads x 16 configurations" 384 (List.length ids)

(* Exact counts of a seeded op sequence over a few small pairs: the same
   seed repeats them bit for bit, and a different seed (same multiset)
   sums to the same totals. *)
let counts ~seed =
  let pairs =
    Layers.pairs
      (List.map Muir_workloads.Workloads.find [ "saxpy"; "fib"; "relu[T]" ])
  in
  let order = Plan.shuffle ~seed ~round:0 (Array.init (Array.length pairs) Fun.id) in
  Array.to_list
    (Array.map
       (fun i ->
         let p = pairs.(i) in
         let s = Layers.simulate_op None p in
         let c = Layers.check_op None p in
         ( Layers.pair_name p,
           [ s.s_report.r_cycles; s.s_report.r_fires; s.s_front.nodes;
             s.s_front.nodes_after; List.length c.c_diags ] ))
       order)

let test_exact_counts_repeat () =
  let a = counts ~seed:5 and b = counts ~seed:5 and c = counts ~seed:6 in
  let t = Alcotest.(list (pair string (list int))) in
  Alcotest.check t "same seed" a b;
  Alcotest.(check bool) "different order" true (List.map fst a <> List.map fst c);
  Alcotest.check t "same counts per pair" (List.sort compare a) (List.sort compare c)

let test_tail_rank () =
  let t = Alcotest.(pair (float 1e-12) int) in
  (* small N: the tail sits far below p99 *)
  Alcotest.check t "n=10 falls back to the median" (0.5, 5) (Plan.tail_rank 10);
  Alcotest.check t "n=20" (0.5, 10) (Plan.tail_rank 20);
  Alcotest.check t "n=50" (0.8, 10) (Plan.tail_rank 50);
  Alcotest.check t "n=100" (0.9, 10) (Plan.tail_rank 100);
  Alcotest.check t "n=624" (1.0 -. (10.0 /. 624.0), 10) (Plan.tail_rank 624);
  (* large N *)
  Alcotest.check t "n=1000" (0.99, 10) (Plan.tail_rank 1000);
  Alcotest.check t "n=100000" (0.9999, 10) (Plan.tail_rank 100000);
  (* exactly ten samples lie above the tail value *)
  List.iter
    (fun n ->
      let xs = Array.init n float_of_int in
      let v = (Plan.tail xs).t_value in
      Alcotest.(check int)
        (Fmt.str "ten beyond at n=%d" n)
        10
        (Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 xs))
    [ 20; 37; 100; 624; 1536; 4800; 100000 ]

let test_tail_value () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  let tl = Plan.tail xs in
  Alcotest.(check (float 1e-9)) "p90 of 1..100" 90.1 tl.t_value;
  Alcotest.(check (float 1e-9)) "percentile" 90.0 tl.t_pct;
  Alcotest.(check int) "beyond" 10 tl.t_beyond;
  Alcotest.(check (float 1e-9)) "median" 50.5 (Plan.median xs)

let () =
  Alcotest.run "perfbench"
    [ ( "sequence",
        [ Alcotest.test_case "same seed, same sequence" `Quick test_same_seed_same_sequence;
          Alcotest.test_case "other seed, same multiset" `Quick test_other_seed_same_multiset;
          Alcotest.test_case "serve hit ratio is 3/4" `Quick test_serve_hit_ratio;
          Alcotest.test_case "serve keys are distinct" `Quick test_serve_keys_distinct;
          Alcotest.test_case "exact counts repeat" `Quick test_exact_counts_repeat ] );
      ( "tail",
        [ Alcotest.test_case "highest percentile with 10 beyond" `Quick test_tail_rank;
          Alcotest.test_case "tail value" `Quick test_tail_value ] ) ]
