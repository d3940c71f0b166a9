(** The telemetry handle: one clock, one metrics registry, one logger,
    one span ring.  Producers (the serve daemon, the explorer) take an
    optional [?obs] and fall back to a fresh silent instance, so
    telemetry is always on structurally but costs nothing and changes
    no output unless a sink is attached.

    Everything in here follows the coordinator-only rule: workers
    return measurements, the coordinating domain folds them into the
    registry.  Nothing is synchronized. *)

type t = {
  o_clock : unit -> float;
  o_metrics : Metrics.t;
  o_log : Log.t;
  o_spans : Span.ring;
  mutable o_seq : int;  (** next span/request id *)
}

(** Request spans the ring retains. *)
let span_capacity = 512

let create ?(clock = Unix.gettimeofday) ?log () : t =
  let log = match log with Some l -> l | None -> Log.null () in
  { o_clock = clock; o_metrics = Metrics.create (); o_log = log;
    o_spans = Span.ring span_capacity; o_seq = 0 }

let now (t : t) : float = t.o_clock ()

(** Fresh span/request id; unique per handle, dense from 0. *)
let span_id (t : t) : int =
  let id = t.o_seq in
  t.o_seq <- t.o_seq + 1;
  id
