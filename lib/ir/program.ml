(** A whole program: global arrays laid out in a flat word-addressed
    memory, plus a set of functions.  Each global array is its own
    allocation site; the trivial points-to analysis used by the memory
    localization passes maps every address expression to the global it
    was derived from. *)

open Types

type global = {
  gname : string;
  gsize : int;               (** words *)
  gelt : ty;                 (** element type, for width modelling *)
  ginit : value array option; (** optional initial contents *)
  gbase : int;               (** assigned word address of element 0 *)
  gspace : int;              (** allocation-site / address-space id *)
}

type t = {
  globals : global list;
  funcs : Func.t list;
}

let find_func (p : t) name =
  match List.find_opt (fun (f : Func.t) -> f.name = name) p.funcs with
  | Some f -> f
  | None -> invalid_arg ("Program.find_func: no function " ^ name)

let find_global (p : t) name =
  match List.find_opt (fun g -> g.gname = name) p.globals with
  | Some g -> g
  | None -> invalid_arg ("Program.find_global: no global " ^ name)

let has_func (p : t) name =
  List.exists (fun (f : Func.t) -> f.name = name) p.funcs

(** Total memory footprint in words. *)
let memory_words (p : t) =
  List.fold_left (fun acc g -> max acc (g.gbase + g.gsize)) 0 p.globals

(** Lay out globals from word 0 and assign space ids.  Each array is
    aligned to a cache line (8 words) and separated from its neighbour
    by one line of padding, which skews equally-sized arrays across
    cache banks instead of landing them all on bank 0. *)
let layout (globals : (string * int * ty * value array option) list) :
    global list =
  let line_words = 8 and pad_lines = 1 in
  let align n = (n + line_words - 1) / line_words * line_words in
  let _, gs =
    List.fold_left
      (fun (base, acc) (gname, gsize, gelt, ginit) ->
        let g =
          { gname; gsize; gelt; ginit; gbase = base;
            gspace = List.length acc + 1 }
        in
        (align (base + gsize) + (pad_lines * line_words), g :: acc))
      (0, []) globals
  in
  List.rev gs

(** Attach initial contents to named globals (used by workload drivers
    to load datasets before execution). *)
let with_init (p : t) (inits : (string * value array) list) : t =
  List.iter
    (fun (n, a) ->
      let g = find_global p n in
      if Array.length a > g.gsize then
        invalid_arg (Fmt.str "Program.with_init: %s data too large" n))
    inits;
  { p with
    globals =
      List.map
        (fun g ->
          match List.assoc_opt g.gname inits with
          | Some a -> { g with ginit = Some a }
          | None -> g)
        p.globals }

let pp ppf (p : t) =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun g ->
      Fmt.pf ppf "global %s : %a[%d] @@%d space %d@," g.gname pp_ty g.gelt
        g.gsize g.gbase g.gspace)
    p.globals;
  List.iter (fun f -> Fmt.pf ppf "%a@," Func.pp f) p.funcs;
  Fmt.pf ppf "@]"
