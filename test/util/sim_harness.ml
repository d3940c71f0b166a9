(* Shared test harness: compile a mini-language program, run the
   golden interpreter and the cycle simulator (optionally after μopt
   passes), and compare results. *)

open Muir_ir

let farr l = Array.of_list (List.map (fun f -> Types.VFloat f) l)
let iarr l = Array.of_list (List.map (fun i -> Types.vint i) l)

let value_testable =
  Alcotest.testable Types.pp_value (fun a b -> Types.value_close a b)

(** Compile and attach initial data. *)
let program ?(inits = []) src =
  let p = Muir_frontend.Frontend.compile src in
  Program.with_init p inits

(** Golden execution. *)
let golden ?entry ?args (p : Program.t) = Interp.run ?entry ?args p

(** Build (optionally optimize) and simulate; returns the sim result. *)
let simulate ?(passes = []) ?entry ?args ?max_cycles (p : Program.t) :
    Muir_sim.Sim.result =
  let c =
    match entry with
    | Some e -> Muir_core.Build.circuit ~entry:e p
    | None -> Muir_core.Build.circuit p
  in
  let _reports = Muir_opt.Pass.run_all passes c in
  Muir_sim.Sim.run ?args ?max_cycles c

(** Assert the simulator reproduces the golden memory for [globals]
    and the golden return value. *)
let check_against_golden ?(passes = []) ?(inits = []) ?entry ?args
    ~(globals : string list) (name : string) (src : string) :
    Muir_sim.Sim.result =
  let p = program ~inits src in
  let gv, gold_mem, _ = golden ?entry ?args p in
  let args =
    Option.map (List.map (fun v -> (v : Types.value))) args
  in
  let r = simulate ~passes ?entry ?args p in
  Alcotest.check value_testable (name ^ ": return value") gv r.value;
  (match Memory.first_mismatch p globals ~golden:gold_mem r.memory with
  | None -> ()
  | Some (g, i, x, y) ->
    Alcotest.failf "%s: %s[%d] golden=%s sim=%s" name g i
      (Types.value_to_string x) (Types.value_to_string y));
  r

(** The text of bundled example [name], found whether a test runs from
    the repo root, from test/, or from dune's sandbox
    (_build/default/test). *)
let read_example name =
  let candidates =
    List.map
      (fun d -> Filename.concat d name)
      [ "examples"; "../examples"; "../../examples"; "../../../examples" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> In_channel.with_open_bin p In_channel.input_all
  | None -> Alcotest.fail ("cannot locate examples/" ^ name)

(** The explorer grid over examples/divring.mc, the one subject with
    honest pruning geometry: op-fusion re-times the divide ring from
    II 18 to 16, so a fused config's {e measured} 4112 cycles undercut
    an un-fused config's {e static bound} of 4598, and the un-fused
    configs that also pay for banking are strictly bigger, hence
    provably off the frontier without simulating.  The first chunk
    (the explorer evaluates in chunks of 8) simulates the incumbents;
    the trailing un-fused banked configs then fall to the timing
    filter.  Configurations that build the same circuit share a
    chunk. *)
let divring_grid () =
  let v = Muir_dse.Config.v in
  [ v "baseline"; v "cilk-stack"; v ~off:[ "op-fusion" ] "cilk-stack";
    v ~tiles:2 "cilk-stack"; v ~banks:2 "cilk-stack";
    v ~banks:4 "cilk-stack"; v ~tiles:2 ~banks:2 "cilk-stack";
    v ~tiles:2 ~banks:4 "cilk-stack";
    (* second chunk: all four are timing-prunable *)
    v ~banks:2 ~off:[ "op-fusion" ] "cilk-stack";
    v ~banks:4 ~off:[ "op-fusion" ] "cilk-stack";
    v ~tiles:2 ~banks:2 ~off:[ "op-fusion" ] "cilk-stack";
    v ~tiles:2 ~banks:4 ~off:[ "op-fusion" ] "cilk-stack" ]
