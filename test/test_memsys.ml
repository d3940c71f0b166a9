(* Unit tests for the memory-structure runtime: databox splitting,
   bank mapping, LRU tags, and the next-line prefetcher. *)

open Muir_ir.Types
module G = Muir_core.Graph
module M = Muir_sim.Memsys

(* A circuit shell with one scratchpad and one cache, no tasks. *)
let shell ~spad_width ~spad_banks ~cache_banks () =
  let prog =
    { Muir_ir.Program.globals =
        Muir_ir.Program.layout [ ("a", 64, TFloat, None) ];
      funcs = [] }
  in
  let c =
    { G.cname = "shell"; tasks = []; root = 0; structures = [];
      space_map = []; junction_width = []; prog }
  in
  let sp =
    G.add_structure c ~sname:"sp"
      (G.Scratchpad
         { banks = spad_banks; ports_per_bank = 1; latency = 2;
           width_words = spad_width; wb_buffer = false })
  in
  let l1 =
    G.add_structure c ~sname:"l1"
      (G.Cache
         { banks = cache_banks; line_words = 8; size_words = 1024; ways = 2;
           hit_latency = 2; miss_latency = 100 })
  in
  G.bind_space c 0 l1.sid;
  G.bind_space c 1 sp.sid;
  G.bind_space c 2 l1.sid;
  let mem = Muir_ir.Memory.create prog in
  let ms = M.create c mem in
  (ms, ms.space_of 1, ms.space_of 2)

let access addrs =
  let a = M.make_access ~words:(List.length addrs) ~notify:ignore in
  M.reset_access a ~is_store:false;
  List.iter
    (fun w ->
      a.M.a_addrs.(a.M.a_n) <- w;
      a.M.a_n <- a.M.a_n + 1)
    addrs;
  a

(* split fills the access's reused sub-request slots; [a_nsrs] is the
   transaction count *)
let nsplit rt addrs =
  let a = access addrs in
  M.split rt a;
  a.M.a_nsrs

let test_scratchpad_split_width () =
  let _, sp, _ = shell ~spad_width:4 ~spad_banks:2 ~cache_banks:1 () in
  (* a 2x2 tile = 4 words: one wide access *)
  Alcotest.(check int) "wide scratchpad: one transaction" 1
    (nsplit sp [ 0; 1; 8; 9 ]);
  (* width 1 would need 4 *)
  let _, sp1, _ = shell ~spad_width:1 ~spad_banks:2 ~cache_banks:1 () in
  Alcotest.(check int) "narrow scratchpad: four transactions" 4
    (nsplit sp1 [ 0; 1; 8; 9 ])

let test_cache_split_coalesces_lines () =
  let _, _, l1 = shell ~spad_width:1 ~spad_banks:1 ~cache_banks:1 () in
  (* words 0,1 share a line; word 9 is on the next line: two requests *)
  Alcotest.(check int) "line coalescing" 2 (nsplit l1 [ 0; 1; 9 ])

let test_bank_mapping () =
  let _, _, l1 = shell ~spad_width:1 ~spad_banks:1 ~cache_banks:4 () in
  let bank rt addr =
    let a = access [ addr ] in
    M.split rt a;
    M.bank_of rt a.M.a_srs.(0)
  in
  (* line-interleaved: consecutive lines hit consecutive banks *)
  Alcotest.(check int) "line 0 -> bank 0" 0 (bank l1 0);
  Alcotest.(check int) "line 1 -> bank 1" 1 (bank l1 8);
  Alcotest.(check int) "line 4 wraps to bank 0" 0 (bank l1 32);
  let _, sp, _ = shell ~spad_width:1 ~spad_banks:2 ~cache_banks:1 () in
  (* word-interleaved scratchpad *)
  Alcotest.(check int) "word 0 -> bank 0" 0 (bank sp 0);
  Alcotest.(check int) "word 1 -> bank 1" 1 (bank sp 1)

let test_cache_lru_and_prefetch () =
  let ts = M.make_tagstore ~sets:2 ~ways:2 ~nbanks:1 in
  let look addr = M.cache_lookup ts ~nbanks:1 ~line_words:8 addr in
  Alcotest.(check bool) "cold miss" false (look 0);
  Alcotest.(check bool) "hit after fill" true (look 0);
  (* set 0 holds lines {0,2,4,...}: insert two more, evicting LRU *)
  Alcotest.(check bool) "line 2 cold" false (look 16);
  Alcotest.(check bool) "line 4 cold, evicts line 0" false (look 32);
  Alcotest.(check bool) "line 0 was evicted" false (look 0);
  (* explicit prefetch insertion *)
  M.insert_line ts ~nbanks:1 7;
  Alcotest.(check bool) "prefetched line hits" true (look (7 * 8))

let test_end_to_end_prefetch_counts () =
  (* through the simulator: unit-stride scan should mostly prefetch *)
  let p =
    Muir_frontend.Frontend.compile
      {|
global float A[128]; global float O[1];
func void main() {
  float s = 0.0;
  for (int i = 0; i < 128; i = i + 1) { s = s + A[i]; }
  O[0] = s;
}|}
  in
  let c = Muir_core.Build.circuit p in
  let r = Muir_sim.Sim.run c in
  let l1 =
    List.find (fun (s : M.struct_stats) -> s.ss_name = "l1") r.stats.mem
  in
  (* 17 cold lines (128 floats + padding skew); the prefetcher
     catches roughly every other one *)
  Alcotest.(check bool)
    (Fmt.str "few misses (got %d)" l1.ss_misses)
    true
    (l1.ss_misses <= 10 && l1.ss_misses >= 1)

let prop_split_preserves_words =
  QCheck.Test.make ~count:50 ~name:"splitting preserves the word set"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 12) (int_range 0 63))
    (fun addrs ->
      let addrs = List.sort_uniq compare addrs in
      let _, sp, l1 = shell ~spad_width:3 ~spad_banks:2 ~cache_banks:2 () in
      let words rt =
        let a = access addrs in
        M.split rt a;
        let ws = ref [] in
        for j = a.M.a_nsrs - 1 downto 0 do
          let sr = a.M.a_srs.(j) in
          for i = sr.M.sr_n - 1 downto 0 do
            ws := sr.M.sr_addrs.(i) :: !ws
          done
        done;
        List.sort compare !ws
      in
      words sp = addrs && words l1 = addrs)

let () =
  Alcotest.run "memsys"
    [ ( "databox",
        [ Alcotest.test_case "scratchpad width" `Quick
            test_scratchpad_split_width;
          Alcotest.test_case "cache line coalescing" `Quick
            test_cache_split_coalesces_lines;
          Alcotest.test_case "bank mapping" `Quick test_bank_mapping ] );
      ( "cache",
        [ Alcotest.test_case "lru + prefetch" `Quick
            test_cache_lru_and_prefetch;
          Alcotest.test_case "end-to-end prefetch" `Quick
            test_end_to_end_prefetch_counts ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_split_preserves_words ] ) ]
