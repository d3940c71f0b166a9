(** Predefined pass stacks, mirroring the orderings the paper
    evaluates (§6.5, Fig. 8 and Fig. 17). *)

(** The full five-pass stack of Fig. 8 for Cilk-style accelerators:
    task queuing → execution tiling → local scratchpads → scratchpad
    banking → op fusion and pipelining. *)
let cilk_stack ?(tiles = 4) ?(banks = 2) () : Pass.t list =
  [ Structural.queuing_pass ();
    Structural.tiling_pass ~tiles ();
    Structural.localization_pass ();
    Structural.scratchpad_banking_pass ~banks ();
    Structural.cache_banking_pass ~banks ();
    Fusion.pass ]

(** The stack used for the loop-nest workloads in Fig. 17: cache
    banking, memory localization, op fusion. *)
let loop_stack ?(banks = 2) () : Pass.t list =
  [ Structural.queuing_pass ();
    Structural.cache_banking_pass ~banks ();
    Structural.localization_pass ();
    Fusion.pass ]

(** The "every optimization" stack used against the ARM A9 (§6.6):
    the loop stack plus execution tiling of every loop task, so
    concurrent inner-loop invocations run on parallel units. *)
let best_loop_stack ?(banks = 4) ?(tiles = 8) () : Pass.t list =
  [ Structural.queuing_pass ();
    Structural.tiling_pass ~scope:`All_loops ~tiles ();
    Structural.cache_banking_pass ~banks ();
    Structural.localization_pass ();
    Structural.scratchpad_banking_pass ~banks ();
    Fusion.pass ]

(** The tensor stack: localization into type-specific scratchpads plus
    dedicated tensor units (§6.3), then fusion. *)
let tensor_stack () : Pass.t list =
  [ Structural.queuing_pass ();
    Structural.localization_pass ();
    Tensor.pass;
    Fusion.pass ]

(** Every optimization the repository implements, in Fig. 8 order. *)
let all ?(tiles = 4) ?(banks = 2) () : Pass.t list =
  [ Structural.queuing_pass ();
    Structural.tiling_pass ~tiles ();
    Structural.localization_pass ();
    Structural.scratchpad_banking_pass ~banks ();
    Structural.cache_banking_pass ~banks ();
    Tensor.pass;
    Fusion.pass ]

(* ------------------------------------------------------------------ *)
(* Named-stack registry                                                 *)

(** The numeric knobs a stack can expose.  Every stack takes the full
    record and reads only the fields it uses (see {!spec.sp_uses_tiles}
    / {!spec.sp_uses_banks}) — callers that sweep the space can use
    those flags to avoid re-evaluating configurations that build the
    same pass list. *)
type params = { tiles : int; banks : int }

(** One named, parameterizable stack.  [muirc]'s [-O] parsing, its help
    text and the design-space explorer all derive from this registry,
    so a stack added here shows up everywhere at once. *)
type spec = {
  sp_name : string;
  sp_uses_tiles : bool;   (** the builder reads [params.tiles] *)
  sp_uses_banks : bool;   (** the builder reads [params.banks] *)
  sp_defaults : params;   (** what a bare [-O name] means *)
  sp_build : params -> Pass.t list;
}

let registry : spec list =
  [ (* no μopt passes: the constructed circuit as-is *)
    { sp_name = "baseline";
      sp_uses_tiles = false; sp_uses_banks = false;
      sp_defaults = { tiles = 1; banks = 1 };
      sp_build = (fun _ -> []) };
    (* queuing + cache banking + localization + fusion (Fig. 17) *)
    { sp_name = "loop-stack";
      sp_uses_tiles = false; sp_uses_banks = true;
      sp_defaults = { tiles = 1; banks = 2 };
      sp_build = (fun p -> loop_stack ~banks:p.banks ()) };
    (* queuing + tiling + localization + banking + fusion (Fig. 8) *)
    { sp_name = "cilk-stack";
      sp_uses_tiles = true; sp_uses_banks = true;
      sp_defaults = { tiles = 4; banks = 2 };
      sp_build = (fun p -> cilk_stack ~tiles:p.tiles ~banks:p.banks ()) };
    (* localization + dedicated tensor units + fusion (§6.3) *)
    { sp_name = "tensor-stack";
      sp_uses_tiles = false; sp_uses_banks = false;
      sp_defaults = { tiles = 1; banks = 1 };
      sp_build = (fun _ -> tensor_stack ()) };
    (* every loop optimization incl. all-loops tiling (§6.6) *)
    { sp_name = "best";
      sp_uses_tiles = true; sp_uses_banks = true;
      sp_defaults = { tiles = 8; banks = 4 };
      sp_build = (fun p -> best_loop_stack ~banks:p.banks ~tiles:p.tiles ()) } ]

let find_spec (name : string) : spec option =
  List.find_opt (fun s -> s.sp_name = name) registry

let names () : string list = List.map (fun s -> s.sp_name) registry
