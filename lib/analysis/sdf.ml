(** Maximum cycle ratio over timed token-flow graphs.

    A task's steady-state throughput is governed by its cycles: a
    directed cycle [C] carrying [M(C)] resting tokens and accumulating
    [W(C)] cycles of latency sustains at most one wave per
    [W(C)/M(C)] cycles — each token must traverse the whole ring
    between consecutive firings of any node on it.  The {e maximum
    cycle ratio} [max_C W(C)/M(C)] is therefore a lower bound on the
    initiation interval, and the cycle attaining it is the critical
    (binding) cycle — the structure Dynamatic-style buffer sizers
    grow.

    The computation must be {e exactly} sound: the timing oracle's
    contract is [bound <= measured] on every workload, so a float
    epsilon is not acceptable.  We use Dinkelbach/Lawler iteration
    over exact integer arithmetic: starting from any concrete cycle's
    ratio [p/q], search for a cycle with [q*W - p*M > 0] (a positive
    cycle under integer edge costs — Bellman-Ford longest-path with
    predecessor extraction), adopt its exact ratio, and repeat.  The
    ratio strictly increases through the finitely many simple-cycle
    ratios, so the loop terminates; and whatever cycle we end on is a
    {e real} cycle of the graph, so its exact rational ratio is a
    sound bound even if an adversarial graph ended the search early.

    Zero-token cycles ([M(C) = 0]) have infinite ratio — the ring can
    never start.  They are detected first and reported as
    {!Unbounded}; the liveness analysis flags the same structure as a
    deadlock error. *)

(** One edge of the abstracted graph.  ['a] is caller-owned
    provenance (which μIR edge/node/resource produced this
    constraint), threaded through untouched so the critical cycle can
    be reported in source terms. *)
type 'a edge = {
  esrc : int;  (** node index, [0 .. n-1] *)
  edst : int;
  ew : int;    (** latency weight, [>= 0] *)
  em : int;    (** resting tokens (marking), [>= 0] *)
  etag : 'a;
}

type 'a result =
  | Acyclic  (** no directed cycle: throughput unconstrained by rings *)
  | Unbounded of 'a edge list
      (** a zero-token cycle, in traversal order: deadlock *)
  | Ratio of { num : int; den : int; cyc : 'a edge list }
      (** max cycle ratio [num/den] in lowest terms, attained by the
          simple cycle [cyc] (edges in traversal order) *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(** [a/b < c/d] over non-negative rationals with positive
    denominators, exactly. *)
let ratio_lt (a, b) (c, d) = a * d < c * b

(* ------------------------------------------------------------------ *)
(* Cycle search primitives                                             *)

(* Iterative DFS for any cycle of the subgraph [keep]; returns the
   cycle's edges in traversal order.  Gray nodes live on an explicit
   stack of (node, remaining out-edges); hitting a gray node closes a
   cycle which we slice off the path stack. *)
let find_cycle (n : int) (edges : 'a edge list) (keep : 'a edge -> bool)
    : 'a edge list option =
  let outs = Array.make n [] in
  List.iter
    (fun e -> if keep e then outs.(e.esrc) <- e :: outs.(e.esrc))
    edges;
  Array.iteri (fun i l -> outs.(i) <- List.rev l) outs;
  let color = Array.make n 0 in (* 0 white, 1 gray, 2 black *)
  let found = ref None in
  let rec visit path v =
    color.(v) <- 1;
    let rec step = function
      | [] -> ()
      | e :: rest ->
        (match color.(e.edst) with
        | 1 ->
          (* back edge: the cycle is [e] plus the path suffix from
             [e.edst] down to [v] — none of it when [e] is a self-loop *)
          let rec suffix acc = function
            | [] -> acc
            | p :: tl ->
              if p.esrc = e.edst then p :: acc
              else suffix (p :: acc) tl
          in
          found := Some (if e.edst = v then [ e ] else suffix [ e ] path)
        | 0 -> visit (e :: path) e.edst
        | _ -> ());
        if Option.is_none !found then step rest
    in
    step outs.(v);
    if Option.is_none !found then color.(v) <- 2
  in
  let v = ref 0 in
  while Option.is_none !found && !v < n do
    if color.(!v) = 0 then visit [] !v;
    incr v
  done;
  !found

(* Longest-path Bellman-Ford over flat arrays: edge [i] runs
   [src.(i) -> dst.(i)] at cost [cost.(i)], all distances seeded 0
   (virtual source to every node).  If an edge still relaxes after [n]
   passes a positive cycle exists; the last edge relaxed in that pass
   is the witness.  Walk the predecessor edges [n] steps back from it
   to land on the cycle, then collect until a node repeats.  Any
   predecessor-graph cycle at that point is positive (the longest-path
   mirror of the classical negative-cycle argument).  Returns the
   cycle's edge indices in traversal order.  The arrays' lengths and
   endpoints are checked once on entry (raising Invalid_argument), so
   the relaxation loop reads without bounds checks. *)
let positive_cycle (n : int) ~(src : int array) ~(dst : int array)
    ~(cost : int array) : int list option =
  let m = Array.length src in
  if Array.length dst <> m || Array.length cost <> m then
    invalid_arg "Sdf.positive_cycle: arrays of unequal length";
  for i = 0 to m - 1 do
    if src.(i) < 0 || src.(i) >= n || dst.(i) < 0 || dst.(i) >= n then
      invalid_arg "Sdf.positive_cycle: endpoint out of range"
  done;
  let dist = Array.make n 0 and pred = Array.make n (-1) in
  (* One pass in edge order: the last edge it relaxed, or -1. *)
  let relax_pass () =
    let last = ref (-1) in
    for i = 0 to m - 1 do
      let v = Array.unsafe_get dst i in
      let d =
        Array.unsafe_get dist (Array.unsafe_get src i) + Array.unsafe_get cost i
      in
      if d > Array.unsafe_get dist v then begin
        Array.unsafe_set dist v d;
        Array.unsafe_set pred v i;
        last := i
      end
    done;
    !last
  in
  let pass = ref 0 in
  while !pass < n && relax_pass () >= 0 do incr pass done;
  if !pass < n then None (* converged: no positive cycle *)
  else
    let witness = relax_pass () in
    if witness < 0 then None
    else begin
      (* Walk back n steps to guarantee we sit on the cycle itself. *)
      let v = ref dst.(witness) in
      for _ = 1 to n do
        if pred.(!v) >= 0 then v := src.(pred.(!v))
      done;
      let start = !v in
      let rec collect acc v =
        let e = pred.(v) in
        if e < 0 then acc (* unreachable: every walked node has a pred *)
        else if src.(e) = start then e :: acc
        else collect (e :: acc) src.(e)
      in
      Some (collect [] start)
    end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let cycle_sums (cyc : 'a edge list) : int * int =
  List.fold_left (fun (w, m) e -> (w + e.ew, m + e.em)) (0, 0) cyc

(** Maximum cycle ratio of a graph on nodes [0 .. n-1].
    @raise Invalid_argument if an edge endpoint lies outside it *)
let max_cycle_ratio (n : int) (edges : 'a edge list) : 'a result =
  let out v = v < 0 || v >= n in
  if List.exists (fun e -> out e.esrc || out e.edst) edges then
    invalid_arg "Sdf.max_cycle_ratio: edge endpoint out of range";
  match find_cycle n edges (fun e -> e.em = 0) with
  | Some cyc -> Unbounded cyc
  | None -> (
    match find_cycle n edges (fun _ -> true) with
    | None -> Acyclic
    | Some cyc0 ->
      let arr = Array.of_list edges in
      let src = Array.map (fun e -> e.esrc) arr in
      let dst = Array.map (fun e -> e.edst) arr in
      let cost = Array.make (Array.length arr) 0 in
      let rec improve (best : 'a edge list) =
        let w, m = cycle_sums best in
        (* m > 0: zero-token cycles were excluded above.  Search for a
           cycle with [m*W - w*M > 0], i.e. a ratio above [w/m]. *)
        Array.iteri (fun i e -> cost.(i) <- (m * e.ew) - (w * e.em)) arr;
        match positive_cycle n ~src ~dst ~cost with
        | None -> best
        | Some idx ->
          let cyc = List.map (fun i -> arr.(i)) idx in
          let w', m' = cycle_sums cyc in
          if m' > 0 && ratio_lt (w, m) (w', m') then improve cyc
          else best (* no strict progress: [best] stays sound *)
      in
      let cyc = improve cyc0 in
      let w, m = cycle_sums cyc in
      let g = max 1 (gcd w m) in
      Ratio { num = w / g; den = m / g; cyc })
