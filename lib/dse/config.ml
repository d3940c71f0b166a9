(** One point of the design space: a named μopt stack from
    {!Muir_opt.Stacks.registry}, its numeric knobs, and the set of
    member passes switched off.

    Two configurations that build the {e same} pass list — e.g.
    [loop-stack] at [tiles = 2] vs [tiles = 4], since that stack never
    reads [tiles] — share a {!key}, so the explorer evaluates the pair
    once.  The key is content-derived: it serializes the pass sequence
    the configuration actually builds, with each pass's effective
    parameters inlined. *)

module Stacks = Muir_opt.Stacks
module Pass = Muir_opt.Pass

type t = {
  stack : string;        (** a {!Muir_opt.Stacks.registry} name *)
  tiles : int;
  banks : int;
  off : string list;     (** pass names ([Pass.t.pname]) to drop *)
}

let v ?(tiles = 1) ?(banks = 1) ?(off = []) stack =
  { stack; tiles; banks; off = List.sort_uniq compare off }

let spec (cfg : t) : Stacks.spec =
  match Stacks.find_spec cfg.stack with
  | Some s -> s
  | None -> invalid_arg ("Dse.Config: unknown stack " ^ cfg.stack)

(** The pass list this configuration denotes: the stack built at
    ([tiles], [banks]) with the [off] passes filtered out. *)
let passes (cfg : t) : Pass.t list =
  let s = spec cfg in
  s.sp_build { tiles = cfg.tiles; banks = cfg.banks }
  |> List.filter (fun (p : Pass.t) -> not (List.mem p.pname cfg.off))

(** Content key: the canonical serialization of {!passes}.  Parameters
    appear only on the passes that consume them, so configurations that
    differ in an unused knob collide (by design), and an [off] entry
    naming a pass the stack doesn't contain changes nothing. *)
let key (cfg : t) : string =
  let describe (p : Pass.t) =
    match p.pname with
    | "execution-tiling" -> Fmt.str "execution-tiling=%d" cfg.tiles
    | "scratchpad-banking" -> Fmt.str "scratchpad-banking=%d" cfg.banks
    | "cache-banking" -> Fmt.str "cache-banking=%d" cfg.banks
    | n -> n
  in
  match passes cfg with
  | [] -> "baseline"
  | ps -> String.concat "+" (List.map describe ps)

(** The knobs the stack reads, by name: what a run report records. *)
let knobs (cfg : t) : (string * int) list =
  let s = spec cfg in
  (if s.sp_uses_tiles then [ ("tiles", cfg.tiles) ] else [])
  @ if s.sp_uses_banks then [ ("banks", cfg.banks) ] else []

(** Short human label: stack name plus only the knobs it reads. *)
let label (cfg : t) : string =
  let knobs =
    List.map (fun (k, v) -> Fmt.str "%s=%d" k v) (knobs cfg)
    @ List.map (fun p -> "-" ^ p) cfg.off
  in
  match knobs with
  | [] -> cfg.stack
  | ks -> Fmt.str "%s(%s)" cfg.stack (String.concat "," ks)

(** The registry stack [name] at its own default parameters — the
    configuration a user gets from [muirc -O name]. *)
let predefined (name : string) : t =
  match Stacks.find_spec name with
  | None -> invalid_arg ("Dse.Config: unknown stack " ^ name)
  | Some s ->
    { stack = name; tiles = s.sp_defaults.tiles;
      banks = s.sp_defaults.banks; off = [] }
