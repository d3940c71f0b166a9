(* The committed corpus (test/corpus/*.mc): small programs that broke a
   substrate or an analysis once, replayed on every run.  A
   [race_*.mc] file holds a race that [Check.program] must report.
   Every other file must report none, and must simulate to the golden
   interpreter's return value and every global under each distinct
   registry configuration: a stack at tiles {1,2,4} x banks {1,2},
   deduplicated by [Config.key]. *)

open Muir_ir
module Config = Muir_dse.Config

let corpus : (string * string) list Lazy.t =
  lazy
    (Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
    |> List.map (fun f ->
           ( f,
             In_channel.with_open_bin (Filename.concat "corpus" f)
               In_channel.input_all )))

let is_race (file, _) = String.starts_with ~prefix:"race_" file

let configs : Config.t list =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun stack ->
      List.concat_map
        (fun tiles ->
          List.map (fun banks -> Config.v ~tiles ~banks stack) [ 1; 2 ])
        [ 1; 2; 4 ])
    (Muir_opt.Stacks.names ())
  |> List.filter (fun cfg ->
         let k = Config.key cfg in
         (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))

(* Each run that differs from the golden interpreter, as one line. *)
let test_replay () =
  Alcotest.(check int) "distinct configurations" 16 (List.length configs);
  let bad =
    List.concat_map
      (fun (file, src) ->
        let p = Muir_frontend.Frontend.compile src in
        let gv, gold, _ = Interp.run p in
        let globals =
          List.map (fun (g : Program.global) -> g.gname) p.globals
        in
        List.filter_map
          (fun cfg ->
            let p = Muir_frontend.Frontend.compile src in
            let c = Muir_core.Build.circuit p in
            ignore (Muir_opt.Pass.run_all (Config.passes cfg) c);
            let r = Muir_sim.Sim.run c in
            let what =
              match Memory.first_mismatch p globals ~golden:gold r.memory with
              | Some (g, i, x, y) ->
                Some
                  (Fmt.str "%s[%d] golden=%s sim=%s" g i
                     (Types.value_to_string x) (Types.value_to_string y))
              | None when not (Types.value_close gv r.value) ->
                Some
                  (Fmt.str "return golden=%s sim=%s" (Types.value_to_string gv)
                     (Types.value_to_string r.value))
              | None -> None
            in
            Option.map (Fmt.str "%s under %s: %s" file (Config.label cfg)) what)
          configs)
      (List.filter (fun f -> not (is_race f)) (Lazy.force corpus))
  in
  Alcotest.(check (list string)) "runs that differ from the golden model" [] bad

let test_races () =
  List.iter
    (fun ((file, src) as f) ->
      let races =
        List.filter
          (fun (d : Muir_analysis.Diag.t) -> d.code = "race")
          (Muir_analysis.Check.program (Muir_frontend.Frontend.compile src))
      in
      Alcotest.(check bool)
        (file ^ " reports a race") (is_race f) (races <> []))
    (Lazy.force corpus)

let () =
  Alcotest.run "corpus"
    [ ( "corpus",
        [ Alcotest.test_case "replay under every registry configuration"
            `Quick test_replay;
          Alcotest.test_case "race diagnostics" `Quick test_races ] ) ]
