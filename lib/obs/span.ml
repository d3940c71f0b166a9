(** Request spans: a completed unit of work (one serve item, one
    perfbench operation) with its start time, total duration, and an
    ordered list of per-stage segments.  Spans are recorded into a
    fixed-size ring by the coordinator and exported as Chrome trace
    events through {!Muir_trace.Export.document}, the writer the
    simulator's event ring uses too, so a serve-layer trace and a
    simulator trace load into the same viewer. *)

module J = Muir_trace.Json

type seg = {
  sg_name : string;  (** stage name, e.g. ["simulate"] *)
  sg_off : float;    (** seconds after span start *)
  sg_dur : float;    (** seconds *)
}

type t = {
  sp_id : int;       (** unique per recorder; Chrome [tid] *)
  sp_name : string;  (** e.g. the workload/stack label *)
  sp_cat : string;   (** e.g. ["serve.item"] *)
  sp_start : float;  (** absolute seconds (injectable clock upstream) *)
  sp_dur : float;    (** total seconds *)
  sp_segs : seg list;
}

(** Sequential layout: stages ran back-to-back, so segment [i] starts
    where [i-1] ended.  Returns the segments and the summed duration. *)
let layout (stages : (string * float) list) : seg list * float =
  let off = ref 0.0 in
  let segs =
    List.map
      (fun (name, dur) ->
        let s = { sg_name = name; sg_off = !off; sg_dur = dur } in
        off := !off +. dur;
        s)
      stages
  in
  (segs, !off)

(* ------------------------------------------------------------------ *)
(* Bounded recording                                                   *)

type ring = {
  r_slots : t option array;
  mutable r_next : int;   (** total pushes; slot = r_next mod capacity *)
}

let ring (cap : int) : ring =
  if cap <= 0 then invalid_arg "Span.ring: capacity must be positive";
  { r_slots = Array.make cap None; r_next = 0 }

let push (r : ring) (sp : t) : unit =
  let cap = Array.length r.r_slots in
  r.r_slots.(r.r_next mod cap) <- Some sp;
  r.r_next <- r.r_next + 1

(** Retained spans, oldest first. *)
let items (r : ring) : t list =
  let cap = Array.length r.r_slots in
  let n = min r.r_next cap in
  let first = if r.r_next <= cap then 0 else r.r_next mod cap in
  List.init n (fun i ->
      match r.r_slots.((first + i) mod cap) with
      | Some sp -> sp
      | None -> assert false)

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)

let us (s : float) : J.t = J.Float (s *. 1e6)

(** Chrome trace-event JSON ([ph:"X"] complete events, microseconds).
    Each span maps to one whole-span event plus one event per segment,
    all on [tid = sp_id] so concurrent items stack as separate rows. *)
let chrome (spans : t list) : string =
  Muir_trace.Export.document
    (Seq.concat_map
       (fun sp ->
         let ev name cat ts dur =
           J.Obj
             [ ("name", J.Str name); ("cat", J.Str cat); ("ph", J.Str "X");
               ("ts", us ts); ("dur", us dur); ("pid", J.Int 1);
               ("tid", J.Int sp.sp_id) ]
         in
         List.to_seq
           (ev sp.sp_name sp.sp_cat sp.sp_start sp.sp_dur
           :: List.map
                (fun sg ->
                  ev sg.sg_name (sp.sp_cat ^ ".stage")
                    (sp.sp_start +. sg.sg_off) sg.sg_dur)
                sp.sp_segs))
       (List.to_seq spans))
