(* Tests for the μIR core: graph construction (Algorithm 1),
   structural validation, the task/space queries passes rely on, and
   the port roles of the registry circuits. *)

open Muir_core
module G = Graph
module P = Muir_pipeline.Pipeline
module W = Muir_workloads.Workloads

let compile src = Muir_frontend.Frontend.compile src

let saxpy_src =
  {|
global float X[8];
global float Y[8];
func void main() {
  for (int i = 0; i < 8; i = i + 1) { Y[i] = 2.5 * X[i] + Y[i]; }
}
|}

let nested_src =
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
}
|}

let cilk_src =
  {|
global float X[16]; global float Y[16];
func void main() {
  parallel_for (int i = 0; i < 16; i = i + 1) { Y[i] = X[i] + 1.0; }
  sync;
}
|}

let test_valid_circuits () =
  List.iter
    (fun src ->
      let c = Build.circuit (compile src) in
      Alcotest.(check (list string))
        "no validation errors" []
        (List.map (Fmt.str "%a" Validate.pp_error) (Validate.validate c)))
    [ saxpy_src; nested_src; cilk_src ]

let test_task_per_loop () =
  let c = Build.circuit (compile nested_src) in
  (* main + three loop tasks *)
  Alcotest.(check int) "task count" 4 (List.length c.tasks);
  let root = G.task c c.root in
  Alcotest.(check string) "root is main" "main" root.tname;
  (* The hierarchy is a chain main -> i -> j -> k. *)
  let rec depth tid =
    let t = G.task c tid in
    match t.children with
    | [] -> 1
    | [ ch ] -> 1 + depth ch
    | _ -> Alcotest.fail "unexpected fan-out in task tree"
  in
  Alcotest.(check int) "chain of four tasks" 4 (depth c.root)

let test_parallel_loop_kind () =
  let c = Build.circuit (compile cilk_src) in
  let has_parallel =
    List.exists
      (fun (t : G.task) ->
        match t.tkind with
        | G.Tloop { parallel } -> parallel
        | G.Tfunc -> false)
      c.tasks
  in
  Alcotest.(check bool) "parallel loop task exists" true has_parallel;
  (* The loop spawns the outlined body; the body is a function task. *)
  let spawned =
    List.exists
      (fun (t : G.task) ->
        List.exists
          (fun (n : G.node) ->
            match n.kind with G.SpawnChild _ -> true | _ -> false)
          t.nodes)
      c.tasks
  in
  Alcotest.(check bool) "spawn node generated" true spawned;
  let synced =
    List.exists
      (fun (t : G.task) ->
        List.exists (fun (n : G.node) -> n.kind = G.SyncWait) t.nodes)
      c.tasks
  in
  Alcotest.(check bool) "sync node generated" true synced

let test_memory_spaces () =
  let c = Build.circuit (compile saxpy_src) in
  let loop =
    List.find
      (fun (t : G.task) -> match t.tkind with G.Tloop _ -> true | _ -> false)
      c.tasks
  in
  let spaces =
    List.sort_uniq compare
      (List.filter_map G.node_space (G.memory_nodes loop))
  in
  (* X and Y resolve to their own allocation sites, never space 0. *)
  Alcotest.(check int) "two spaces" 2 (List.length spaces);
  Alcotest.(check bool) "no unknown space" false (List.mem 0 spaces)

let test_loop_ring_structure () =
  let c = Build.circuit (compile saxpy_src) in
  let loop =
    List.find
      (fun (t : G.task) -> match t.tkind with G.Tloop _ -> true | _ -> false)
      c.tasks
  in
  let mus =
    List.filter (fun (n : G.node) -> n.kind = G.MergeLoop) loop.nodes
  in
  (* token + induction variable *)
  Alcotest.(check int) "two mu nodes" 2 (List.length mus);
  (* every mu's ctl edge carries exactly one initial false *)
  List.iter
    (fun (mu : G.node) ->
      let ctl =
        List.find (fun (e : G.edge) -> e.dst = (mu.nid, G.mu_ctl)) loop.edges
      in
      Alcotest.(check bool) "ctl primed" true
        (ctl.initial = [ Muir_ir.Types.VBool false ]))
    mus;
  (* steers route back into every mu *)
  List.iter
    (fun (mu : G.node) ->
      let back =
        List.find (fun (e : G.edge) -> e.dst = (mu.nid, G.mu_back)) loop.edges
      in
      let src = G.node loop (fst back.src) in
      match src.kind with
      | G.Steer | G.FusedSteer _ -> ()
      | k ->
        Alcotest.failf "mu back edge fed by %s" (G.kind_to_string k))
    mus

let test_validate_catches_broken () =
  let c = Build.circuit (compile saxpy_src) in
  let loop = List.nth c.tasks 1 in
  (* remove an edge: some input becomes undriven *)
  loop.edges <- List.tl loop.edges;
  Alcotest.(check bool) "detects undriven port" true
    (List.length (Validate.validate c) > 0)

(* The μ ctl and live-out checks read the driver table and one count
   per index; their messages are the ones the per-node scans printed. *)
let test_validate_messages () =
  let c = Build.circuit (compile saxpy_src) in
  let loop =
    List.find
      (fun (t : G.task) -> match t.tkind with G.Tloop _ -> true | _ -> false)
      c.tasks
  in
  let mu = List.find (fun (n : G.node) -> n.kind = G.MergeLoop) loop.nodes in
  let ctl =
    List.find (fun (e : G.edge) -> e.dst = (mu.nid, G.mu_ctl)) loop.edges
  in
  ctl.initial <- [];
  let lo =
    List.find (fun (n : G.node) -> n.kind = G.LiveOut 0) loop.nodes
  in
  lo.kind <- G.LiveOut 1;
  let msgs = List.map (Fmt.str "%a" Validate.pp_error) (Validate.validate c) in
  List.iter
    (fun want ->
      if not (List.mem want msgs) then
        Alcotest.failf "missing %S in:@.%a" want
          Fmt.(list ~sep:cut string) msgs)
    [ Fmt.str "%s: mu n%d: ctl edge must carry one initial false token"
        loop.tname mu.nid;
      Fmt.str "%s: liveout 0 produced 0 times" loop.tname ]

let test_graph_size () =
  let c = Build.circuit (compile nested_src) in
  let n, e = G.graph_size c in
  Alcotest.(check bool) "nontrivial graph" true (n > 30 && e > 40)

let test_structure_binding () =
  let c = Build.circuit (compile saxpy_src) in
  let s = G.structure_of_space c 1 in
  (match s.shape with
  | G.Cache _ -> ()
  | G.Scratchpad _ -> Alcotest.fail "baseline should use the shared cache");
  let sp =
    G.add_structure c ~sname:"sp"
      (G.Scratchpad { banks = 2; ports_per_bank = 1; latency = 1;
                      width_words = 1; wb_buffer = false })
  in
  G.bind_space c 1 sp.sid;
  let s' = G.structure_of_space c 1 in
  Alcotest.(check string) "rebind works" "sp" s'.sname

(* --- the 48 registry circuits ---------------------------------------- *)

(* Every workload as built, and under its per-category stack. *)
let registry_circuits : (string * G.circuit) list Lazy.t =
  lazy
    (List.concat_map
       (fun (w : W.t) ->
         List.map
           (fun (stack, passes) ->
             ( w.wname ^ "/" ^ stack,
               (P.build ~passes (P.of_workload w)).P.p_circuit ))
           [ ("baseline", []); ("per-category", P.per_category w) ])
       W.all)

(* Every μ has exactly one in-edge on each role, the ctl one primed
   with [false] and the init one unprimed; every steer and fused steer
   is predicated by a boolean on its predicate role and takes its data
   on the data role. *)
let test_port_roles () =
  List.iter
    (fun (name, (c : G.circuit)) ->
      List.iter
        (fun (t : G.task) ->
          let ins_on nid port =
            List.filter (fun (e : G.edge) -> e.dst = (nid, port)) t.edges
          in
          let where (n : G.node) = Fmt.str "%s %s n%d" name t.tname n.nid in
          let one (n : G.node) role port =
            match ins_on n.nid port with
            | [ e ] -> e
            | es ->
              Alcotest.failf "%s: %d in-edges on its %s role" (where n)
                (List.length es) role
          in
          let pred_is_bool (n : G.node) =
            let e = one n "predicate" G.pred_port in
            if snd e.src = 0
               && (G.node t (fst e.src)).nty <> Muir_ir.Types.TBool
            then
              Alcotest.failf "%s: predicate role fed a non-boolean" (where n)
          in
          List.iter
            (fun (n : G.node) ->
              match n.kind with
              | G.MergeLoop ->
                if (one n "ctl" G.mu_ctl).initial
                   <> [ Muir_ir.Types.VBool false ]
                then Alcotest.failf "%s: ctl role not primed" (where n);
                if (one n "init" G.mu_init).initial <> [] then
                  Alcotest.failf "%s: init role primed" (where n);
                ignore (one n "back" G.mu_back)
              | G.Steer -> (
                pred_is_bool n;
                match n.ins.(G.steer_data) with
                | G.Simm _ -> ()
                | G.Swire ->
                  (* a node's [nty] types its output 0 only *)
                  let e = one n "data" G.steer_data in
                  if snd e.src = 0 && (G.node t (fst e.src)).nty <> n.nty
                  then
                    Alcotest.failf "%s: data role type differs from output"
                      (where n))
              | G.FusedSteer _ ->
                pred_is_bool n;
                if Array.length n.ins <= G.steer_data then
                  Alcotest.failf "%s: no data role" (where n)
              | _ -> ())
            t.nodes)
        c.tasks)
    (Lazy.force registry_circuits)

(* [Graph.pp_circuit] digests of the same circuits: a structural change
   that moves no simulated cycle still fails here. *)
let circuit_golden =
  [
    ("gemm", "baseline", "193cba9b3b2d3633cac6864eb8e1c08e");
    ("gemm", "per-category", "7ddb20b4a954c6816b08031db371b841");
    ("covar", "baseline", "c920a93f88fcfada873d244e877c22f9");
    ("covar", "per-category", "39fc8e7f98cbb930102b2ee85e11a184");
    ("fft", "baseline", "693ce09d0cc81f9a2208150fdeebd061");
    ("fft", "per-category", "f84e4317d44c130f7cb5a0d0d18faabd");
    ("fft-buf", "baseline", "0b8677976b8070b71684c328d413e3b2");
    ("fft-buf", "per-category", "826589cdf113bd93c329af53d95bd53f");
    ("spmv", "baseline", "b696b50100c70264b833565d06df712f");
    ("spmv", "per-category", "5106a8be85f75f27f11152bfc56a1dcf");
    ("2mm", "baseline", "78a93d3fa55fb31de51df0f22d5afeb1");
    ("2mm", "per-category", "bfe23e4d91b4cb02547e78809b58ad2b");
    ("3mm", "baseline", "d303f8d3a1244ad2b01aeb1203018b1e");
    ("3mm", "per-category", "b3e91bcefb30adba17c4caaae24da8ff");
    ("fib", "baseline", "10469767013f09168121cce279a0a2ed");
    ("fib", "per-category", "dce19d8bcc2aaf4ebcb60f3586b3a031");
    ("msort", "baseline", "48892f5360442eb1c4d73044257cdbf2");
    ("msort", "per-category", "dc5828bad7a6fdb035f0f2209fe8c3d7");
    ("saxpy", "baseline", "d6fb2839baa171da3a25c93ce4e12394");
    ("saxpy", "per-category", "ecdb9d9d041f9666e980cbf9c60ef2ed");
    ("stencil", "baseline", "5a8fd7f8a0f3ac5e852d9c380d74b19c");
    ("stencil", "per-category", "d65bb95a378e0cba0fba98f919a2d3e2");
    ("img-scale", "baseline", "361caacb0ac9caa3f248c6dc4111f360");
    ("img-scale", "per-category", "0a8d5090f336ed7c9b2ce08aa9bca605");
    ("conv", "baseline", "42d85220f7da8219990a06d72353456e");
    ("conv", "per-category", "90d06fe5fba5f8a0ce0b2b66318b22bb");
    ("dense8", "baseline", "a7b7f062e7a69ff9187c981ce99548f7");
    ("dense8", "per-category", "95fd759d14ac5dca8e1e78a65bc5f53b");
    ("dense16", "baseline", "4b10727d07bda785d1ff2a1bbcf38493");
    ("dense16", "per-category", "30c630a60430837b8938d816b3fbf971");
    ("softm8", "baseline", "e79ebf100bd353ffa0f53ab5fff77e96");
    ("softm8", "per-category", "659991d9ec71555ad16842b83ebf1db1");
    ("softm16", "baseline", "c13543faecc2acbf614486901e0c5826");
    ("softm16", "per-category", "6961faf99edb465015dff675fa697f76");
    ("relu[T]", "baseline", "e682c7a04b8591770ba11b92ed9f1ed8");
    ("relu[T]", "per-category", "810aa1bc70e949d3d8881660baacb294");
    ("2mm[T]", "baseline", "485556e53ef31afcdab27206ec32215b");
    ("2mm[T]", "per-category", "affd8105d364f6d35c4adf1d2140b89f");
    ("conv[T]", "baseline", "0a6605dc58332672508716508fa2f89e");
    ("conv[T]", "per-category", "d90bf79895b91bc86d53ab18ddc479f2");
    ("rgb2yuv", "baseline", "499846a83cb6486b93e3d62f84e51c3c");
    ("rgb2yuv", "per-category", "bea19efa10d3ee204305939fd1ad570e");
    ("conv1d", "baseline", "a2dd2b1f0d6cb24099e0ddc386c9d0d9");
    ("conv1d", "per-category", "5680b9f06ee208b3f29b70b8b31c2003");
    ("mlp", "baseline", "3b4b38ad4f69425ae4cb6f77383af83d");
    ("mlp", "per-category", "4ae61c2548653efc4b2677728238b27d");
    ("lenet", "baseline", "cd9ceb9753d0aad7494bdb5830208aa0");
    ("lenet", "per-category", "4426844c8aba770343121cd235737296") ]

let test_circuit_golden () =
  List.iter
    (fun (name, c) ->
      let got = Digest.to_hex (Digest.string (Fmt.str "%a" G.pp_circuit c)) in
      match
        List.find_opt (fun (w, s, _) -> w ^ "/" ^ s = name) circuit_golden
      with
      | Some (_, _, want) -> Alcotest.(check string) name want got
      | None -> Alcotest.failf "%s has no recorded circuit digest" name)
    (Lazy.force registry_circuits)

(* Property: circuits built from random small loop nests validate. *)
let prop_random_programs_validate =
  QCheck.Test.make ~count:30 ~name:"random loop nests build valid circuits"
    QCheck.(pair (int_range 1 4) (int_range 2 6))
    (fun (depth, trip) ->
      let rec nest d =
        if d = 0 then
          Fmt.str "O[i0] = O[i0] + %d.0;" trip
        else
          Fmt.str "for (int i%d = 0; i%d < %d; i%d = i%d + 1) { %s }" d d trip
            d d (nest (d - 1))
      in
      let src =
        Fmt.str
          "global float O[16];\nfunc void main() { for (int i0 = 0; i0 < 8; \
           i0 = i0 + 1) { %s } }"
          (nest depth)
      in
      let c = Build.circuit (compile src) in
      Validate.validate c = [])

let () =
  Alcotest.run "muir"
    [ ( "build",
        [ Alcotest.test_case "valid circuits" `Quick test_valid_circuits;
          Alcotest.test_case "task per loop" `Quick test_task_per_loop;
          Alcotest.test_case "parallel loop kind" `Quick
            test_parallel_loop_kind;
          Alcotest.test_case "memory spaces" `Quick test_memory_spaces;
          Alcotest.test_case "loop ring structure" `Quick
            test_loop_ring_structure ] );
      ( "validate",
        [ Alcotest.test_case "catches broken graph" `Quick
            test_validate_catches_broken;
          Alcotest.test_case "messages" `Quick test_validate_messages;
          Alcotest.test_case "graph size" `Quick test_graph_size;
          Alcotest.test_case "structure binding" `Quick
            test_structure_binding ] );
      ( "registry circuits",
        [ Alcotest.test_case "port roles" `Quick test_port_roles;
          Alcotest.test_case "circuit digests" `Quick test_circuit_golden ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_random_programs_validate ] ) ]
