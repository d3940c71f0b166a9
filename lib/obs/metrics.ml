(** The metrics registry: named counters, gauges and fixed-bucket
    latency histograms.

    Design constraints, in order:

    - {e deterministic} — every stored quantity is an exact integer
      (counters, gauges, per-bucket observation counts) except a
      histogram's running sum, which only ever accumulates observed
      values; with an injected clock upstream, two identical runs
      render byte-identical expositions ({!Prom.render} sorts families
      and series, so registration order never shows);
    - {e O(1) per observation} — an observation is one bounded bucket
      scan (bucket counts are fixed at registration) and two adds; no
      allocation, no hashing;
    - {e coordinator-only} — nothing here is synchronized.  The rule,
      shared with the explorer's evaluation memo, is that only the
      coordinating domain touches a registry; workers return
      measurements and the coordinator folds them in.

    A {e family} is a metric name with a kind, help text and (for
    histograms) bucket bounds; a {e series} is one labelled instance of
    a family.  Registration is find-or-create: asking twice for the
    same name and label set returns the same instance, asking for the
    same name with a conflicting kind, help or bucket layout is a
    programming error ([Invalid_argument]).  A counter only grows
    ({!inc}, {!add}): whatever it counts is counted here, not copied in
    from another store. *)

type labels = (string * string) list

(* ------------------------------------------------------------------ *)
(* Name validation (the Prometheus data model)                         *)

let valid_metric_name (s : string) : bool =
  s <> ""
  && (match s.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s

let valid_label_name (s : string) : bool =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
         | _ -> false)
       s

(** Canonical form: sorted by label name, duplicates rejected.  Two
    label lists denote the same series iff their canonical forms are
    equal. *)
let canon_labels (name : string) (ls : labels) : labels =
  let ls = List.sort (fun (a, _) (b, _) -> compare a b) ls in
  let rec check = function
    | [] -> ()
    | (k, _) :: tl ->
      if not (valid_label_name k) then
        invalid_arg (Fmt.str "metric %s: invalid label name %S" name k);
      if k = "le" then
        invalid_arg (Fmt.str "metric %s: label name \"le\" is reserved" name);
      (match tl with
      | (k2, _) :: _ when k = k2 ->
        invalid_arg (Fmt.str "metric %s: duplicate label %S" name k)
      | _ -> ());
      check tl
  in
  check ls;
  ls

(* ------------------------------------------------------------------ *)
(* Values                                                              *)

type counter = { mutable cv : int }
type gauge = { mutable gv : int }

type hist = {
  hb : float array;      (** upper bucket bounds, strictly increasing *)
  hc : int array;        (** per-bucket counts; last slot is +Inf *)
  mutable hsum : float;  (** running sum of observed values *)
  mutable hn : int;      (** total observations *)
}

type value = VCounter of counter | VGauge of gauge | VHist of hist

type kind = Counter | Gauge | Histogram

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

type series = { sr_labels : labels; sr_value : value }

type family = {
  f_name : string;
  f_help : string;
  f_kind : kind;
  f_bounds : float array;       (** empty unless [f_kind = Histogram] *)
  mutable f_series : series list;  (** registration order *)
}

type t = { families : (string, family) Hashtbl.t }

let create () : t = { families = Hashtbl.create 32 }

let families (t : t) : family list =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.families []
  |> List.sort (fun a b -> compare a.f_name b.f_name)

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)

(** Latency buckets that resolve both a cache probe (~µs) and a cold
    whole-pipeline simulation (~s): 10 µs up to 10 s, roughly
    geometric.  The implicit final bucket is +Inf. *)
let default_buckets : float array =
  [| 1e-5; 1e-4; 5e-4; 1e-3; 5e-3; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5;
     1.0; 2.5; 5.0; 10.0 |]

let family (t : t) ~(kind : kind) ~(help : string) ~(bounds : float array)
    (name : string) : family =
  if not (valid_metric_name name) then
    invalid_arg (Fmt.str "invalid metric name %S" name);
  match Hashtbl.find_opt t.families name with
  | Some f ->
    if f.f_kind <> kind then
      invalid_arg
        (Fmt.str "metric %s is a %s, requested as %s" name
           (kind_name f.f_kind) (kind_name kind));
    if f.f_help <> help then
      invalid_arg (Fmt.str "metric %s re-registered with different help" name);
    if f.f_bounds <> bounds then
      invalid_arg
        (Fmt.str "metric %s re-registered with different buckets" name);
    f
  | None ->
    Array.iteri
      (fun i b ->
        if not (Float.is_finite b) then
          invalid_arg (Fmt.str "metric %s: non-finite bucket bound" name);
        if i > 0 && bounds.(i - 1) >= b then
          invalid_arg
            (Fmt.str "metric %s: bucket bounds not strictly increasing" name))
      bounds;
    let f = { f_name = name; f_help = help; f_kind = kind;
              f_bounds = bounds; f_series = [] }
    in
    Hashtbl.add t.families name f;
    f

let series (f : family) (labels : labels) (fresh : unit -> value) : value =
  let labels = canon_labels f.f_name labels in
  match
    List.find_opt (fun s -> s.sr_labels = labels) f.f_series
  with
  | Some s -> s.sr_value
  | None ->
    let v = fresh () in
    f.f_series <- f.f_series @ [ { sr_labels = labels; sr_value = v } ];
    v

let counter (t : t) ?(help = "") ?(labels = []) (name : string) : counter =
  let f = family t ~kind:Counter ~help ~bounds:[||] name in
  match series f labels (fun () -> VCounter { cv = 0 }) with
  | VCounter c -> c
  | _ -> assert false

let gauge (t : t) ?(help = "") ?(labels = []) (name : string) : gauge =
  let f = family t ~kind:Gauge ~help ~bounds:[||] name in
  match series f labels (fun () -> VGauge { gv = 0 }) with
  | VGauge g -> g
  | _ -> assert false

let histogram (t : t) ?(help = "") ?(labels = [])
    ?(buckets = default_buckets) (name : string) : hist =
  let f = family t ~kind:Histogram ~help ~bounds:buckets name in
  match
    series f labels (fun () ->
        VHist
          { hb = buckets; hc = Array.make (Array.length buckets + 1) 0;
            hsum = 0.0; hn = 0 })
  with
  | VHist h -> h
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Updates                                                             *)

let inc (c : counter) : unit = c.cv <- c.cv + 1

let add (c : counter) (n : int) : unit =
  if n < 0 then invalid_arg "Metrics.add: counters are monotonic";
  c.cv <- c.cv + n

let set (g : gauge) (n : int) : unit = g.gv <- n

(** One observation: one bounded scan for the bucket (bounds are
    inclusive upper limits, [v <= hb.(i)]), three field updates. *)
let observe (h : hist) (v : float) : unit =
  let n = Array.length h.hb in
  let rec slot i = if i >= n || v <= h.hb.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.hc.(i) <- h.hc.(i) + 1;
  h.hsum <- h.hsum +. v;
  h.hn <- h.hn + 1

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

let counter_value (c : counter) : int = c.cv
let gauge_value (g : gauge) : int = g.gv
let hist_count (h : hist) : int = h.hn
let hist_sum (h : hist) : float = h.hsum

(** Cumulative bucket counts (the Prometheus wire shape): one entry
    per bound plus the +Inf slot; the last entry equals {!hist_count}. *)
let cumulative (h : hist) : int array =
  let cum = Array.make (Array.length h.hc) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i c ->
      acc := !acc + c;
      cum.(i) <- !acc)
    h.hc;
  cum

(** Quantile estimate from bucket counts, the [histogram_quantile]
    interpolation: find the first bucket whose cumulative count covers
    rank [q * n], then interpolate linearly inside it.  Observations in
    the +Inf bucket clamp to the highest finite bound; an empty
    histogram answers 0. *)
let quantile_of ~(bounds : float array) ~(cum : int array) (q : float) :
    float =
  let nb = Array.length bounds in
  let total = if Array.length cum = 0 then 0 else cum.(Array.length cum - 1) in
  if total = 0 || nb = 0 then 0.0
  else begin
    let rank = q *. float_of_int total in
    let rec find i = if i >= nb || float_of_int cum.(i) >= rank then i else find (i + 1) in
    let i = find 0 in
    if i >= nb then bounds.(nb - 1)
    else
      let lo = if i = 0 then 0.0 else bounds.(i - 1) in
      let hi = bounds.(i) in
      let below = if i = 0 then 0 else cum.(i - 1) in
      let inside = cum.(i) - below in
      if inside = 0 then hi
      else
        lo +. ((hi -. lo) *. (rank -. float_of_int below) /. float_of_int inside)
  end

let quantile (h : hist) (q : float) : float =
  quantile_of ~bounds:h.hb ~cum:(cumulative h) q
