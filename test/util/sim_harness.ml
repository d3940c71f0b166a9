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
    and the golden return value (unless void). *)
let check_against_golden ?(passes = []) ?(inits = []) ?entry ?args
    ~(globals : string list) (name : string) (src : string) :
    Muir_sim.Sim.result =
  let p = program ~inits src in
  let gv, gold_mem, _ = golden ?entry ?args p in
  let args =
    Option.map (List.map (fun v -> (v : Types.value))) args
  in
  let r = simulate ~passes ?entry ?args p in
  (match gv with
  | Types.VUnit -> ()
  | _ ->
    Alcotest.check value_testable (name ^ ": return value") gv r.value);
  (match Memory.first_mismatch p globals ~golden:gold_mem r.memory with
  | None -> ()
  | Some (g, i, x, y) ->
    Alcotest.failf "%s: %s[%d] golden=%s sim=%s" name g i
      (Types.value_to_string x) (Types.value_to_string y));
  r
