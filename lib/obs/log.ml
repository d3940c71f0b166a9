(** Structured JSON event log: one line per event, greppable, with a
    monotonic sequence number and a timestamp from an injectable clock.

    Records are rendered with {!Muir_trace.Json} so the wire shape is
    the same strict JSON as every other artifact in the repo:

    {v {"seq":12,"ts":1723118400.25,"level":"info","event":"admit","id":3,...} v}

    The sink is any [string -> unit]; the daemon points it at a file
    or stderr, tests at a [Buffer].  A disabled logger ({!null}) costs
    one branch per call — producers do not guard their call sites. *)

module J = Muir_trace.Json

type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type t = {
  lg_sink : (string -> unit) option;
  lg_clock : unit -> float;
  mutable lg_seq : int;  (** next sequence number; counts emitted records *)
}

(** A logger that drops everything; the default everywhere so telemetry
    never changes behaviour unless asked for. *)
let null () : t = { lg_sink = None; lg_clock = (fun () -> 0.0); lg_seq = 0 }

let create ?(clock = Unix.gettimeofday) (sink : string -> unit) : t =
  { lg_sink = Some sink; lg_clock = clock; lg_seq = 0 }

(** Sink writing one line per record, flushed so a [tail -f] or a
    crashed daemon never hides records. *)
let to_channel (oc : out_channel) : string -> unit =
 fun line ->
  output_string oc line;
  output_char oc '\n';
  flush oc

(** Emit one record.  [fields] follow the fixed header fields; the
    sequence number only advances on records that are actually
    written, so a file of N lines always carries seq 0..N-1. *)
let event (t : t) ?(level = Info) (name : string)
    (fields : (string * J.t) list) : unit =
  match t.lg_sink with
  | Some sink ->
    let record =
      J.Obj
        ([ ("seq", J.Int t.lg_seq);
           ("ts", J.Float (t.lg_clock ()));
           ("level", J.Str (level_name level));
           ("event", J.Str name) ]
        @ fields)
    in
    t.lg_seq <- t.lg_seq + 1;
    sink (J.to_string record)
  | _ -> ()
