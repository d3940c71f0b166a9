(** The explorer's memo cache: evaluation results keyed by the
    content key of ({!Config.key} × workload), so re-exploration and
    overlapping configurations never re-simulate.

    The cache lives in the coordinating domain only — workers never
    touch it.  The pool master consults it before dispatching a batch
    and records fresh results after the batch joins, which keeps the
    table free of cross-domain races by construction. *)

type 'a t = {
  tbl : (string, 'a) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

type stats = { c_hits : int; c_misses : int; c_entries : int }

let create () : 'a t = { tbl = Hashtbl.create 64; hits = 0; misses = 0 }

(** Lookup that counts hits.  Misses are recorded by {!add} — a
    budget-truncated lookup that never gets evaluated isn't one. *)
let find_opt (c : 'a t) (key : string) : 'a option =
  match Hashtbl.find_opt c.tbl key with
  | Some v ->
    c.hits <- c.hits + 1;
    Some v
  | None -> None

(** Record a freshly paid-for result. *)
let add (c : 'a t) (key : string) (v : 'a) : unit =
  c.misses <- c.misses + 1;
  Hashtbl.replace c.tbl key v

(** Install an entry without touching the hit/miss counters.  This is
    how a persistent cache (lib/serve's result store) warms the table
    from disk at startup: the entries were paid for by an earlier
    process, so they are neither hits nor misses of this one. *)
let seed (c : 'a t) (key : string) (v : 'a) : unit =
  Hashtbl.replace c.tbl key v

let stats (c : 'a t) : stats =
  { c_hits = c.hits; c_misses = c.misses;
    c_entries = Hashtbl.length c.tbl }

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "%d hit%s, %d miss%s, %d entr%s" s.c_hits
    (if s.c_hits = 1 then "" else "s")
    s.c_misses
    (if s.c_misses = 1 then "" else "es")
    s.c_entries
    (if s.c_entries = 1 then "y" else "ies")
