(** Cycle-level event tracing for the simulation kernel.

    A {!t} is a low-overhead event sink the kernel writes into while
    it runs: node firings, stall-cause transitions and per-structure
    occupancy samples land in a fixed-size ring buffer (old events are
    overwritten).  Tracing is strictly opt-in — the kernel takes an
    [option] and every hook is a single match when disabled — and
    strictly passive: nothing in here feeds back into simulation
    timing, which is what lets the kernel-equivalence goldens in
    [test/test_sim.ml] assert identical cycle counts with tracing off
    and on.

    Exact whole-run aggregates do {e not} live here any more: the
    always-on counter bank in {!Counters} owns the stall taxonomy,
    interval accounting and per-(task, node) totals, and is maintained
    by the kernel whether or not a tracer is attached.  The ring is
    purely for timelines — the Chrome trace and VCD exporters and the
    critical-path extractor — so losing old events to overwrite (or
    running with [~capacity:0]) costs timeline depth, never a number. *)

type ev =
  | Efire of { c : int; task : int; inst : int; node : int; lat : int }
  | Estall of {
      c : int; task : int; inst : int; node : int; cause : Counters.cause }
  | Eocc of { c : int; key : Counters.key; depth : int }

(* ------------------------------------------------------------------ *)
(* The trace sink                                                       *)

type t = {
  ring : ev array;
  mutable head : int;     (** total events ever emitted *)
  occ : (Counters.key, (int, int) Hashtbl.t) Hashtbl.t;
      (** occupancy histograms: key -> depth -> samples, one sample
          per key per cycle *)
  occ_last : (Counters.key, int) Hashtbl.t;
      (** last ring-emitted depth: samples only hit the ring on change *)
  mutable final_cycle : int;
}

let dummy_ev = Eocc { c = 0; key = Counters.Ktask 0; depth = 0 }

(** [~capacity:0] is legal: the tracer still collects occupancy
    histograms and event totals but retains no timeline — useful to
    prove the counter bank is ring-independent. *)
let create ?(capacity = 1 lsl 18) () : t =
  { ring = Array.make (max capacity 0) dummy_ev; head = 0;
    occ = Hashtbl.create 16; occ_last = Hashtbl.create 16;
    final_cycle = 0 }

let emit (tr : t) (e : ev) : unit =
  let cap = Array.length tr.ring in
  if cap > 0 then tr.ring.(tr.head mod cap) <- e;
  tr.head <- tr.head + 1

(** Record one occupancy sample.  The histogram counts every sample;
    the ring only gets depth {e changes} (all the exporters need). *)
let occ_sample (tr : t) ~(c : int) (key : Counters.key) (depth : int) :
    unit =
  if Hashtbl.find_opt tr.occ_last key <> Some depth then begin
    Hashtbl.replace tr.occ_last key depth;
    emit tr (Eocc { c; key; depth })
  end;
  let h =
    match Hashtbl.find_opt tr.occ key with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.add tr.occ key h;
      h
  in
  Hashtbl.replace h depth
    (1 + Option.value ~default:0 (Hashtbl.find_opt h depth))

(* ------------------------------------------------------------------ *)
(* Reading the ring                                                     *)

let total_events (tr : t) = tr.head
let retained_events (tr : t) = min tr.head (Array.length tr.ring)

(** Retained events, oldest first (chronological: the kernel emits in
    cycle order). *)
let events (tr : t) : ev list =
  let cap = Array.length tr.ring in
  if cap = 0 then []
  else
    let start = max 0 (tr.head - cap) in
    List.init (tr.head - start) (fun i -> tr.ring.((start + i) mod cap))

(** Occupancy histogram for [key]: (depth, samples) sorted by depth. *)
let occupancy_hist (tr : t) (key : Counters.key) : (int * int) list =
  match Hashtbl.find_opt tr.occ key with
  | None -> []
  | Some h ->
    Hashtbl.fold (fun d n acc -> (d, n) :: acc) h []
    |> List.sort compare

let occupancy_keys (tr : t) : Counters.key list =
  Hashtbl.fold (fun k _ acc -> k :: acc) tr.occ [] |> List.sort compare
