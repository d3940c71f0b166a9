(** Seeded op sequences and the order statistics the benchmark reports.

    Pure OCaml with no toolchain dependency, so the self-tests can pin
    both halves: a seed fixes the op order, never the op multiset, and
    the tail percentile follows the "at least ten samples beyond it"
    rule. *)

(** Fisher–Yates permutation of [xs] drawn from a PRNG keyed by
    ([seed], [round]).  Every round of a run (one pass over the suite,
    one serve session) gets its own order; the same key always gives
    the same order. *)
let shuffle ~(seed : int) ~(round : int) (xs : 'a array) : 'a array =
  let st = Random.State.make [| seed; round |] in
  let a = Array.copy xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** Serve traffic for one session: each of [nkeys] keys sent [copies]
    times, in a seeded order.  Pairs are (key, fresh); a key's first
    occurrence is the fresh evaluation and the other [copies - 1] repeat
    it, so the hit ratio is exactly [(copies - 1) / copies] whatever the
    seed. *)
let serve_sequence ~(seed : int) ~(round : int) ~(copies : int) (nkeys : int)
    : (int * bool) array =
  let order =
    shuffle ~seed ~round (Array.init (nkeys * copies) (fun i -> i mod nkeys))
  in
  let seen = Array.make nkeys false in
  Array.map
    (fun k ->
      let fresh = not seen.(k) in
      seen.(k) <- true;
      (k, fresh))
    order

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

let sorted (xs : 'a array) : 'a array =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(** Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile (xs : float array) (q : float) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median (xs : float array) : float = quantile xs 0.5

let geomean (xs : float array) : float =
  if xs = [||] then nan
  else
    exp
      (Array.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (Array.length xs))

(** The highest percentile with at least ten samples beyond it, and
    that count: [1 - 10/n], so exactly ten lie beyond.  A benchmark run
    does a fixed amount of work, so [n] — and with it the percentile —
    is the same in every run.  Below 20 samples the median is used, with
    its (smaller) count. *)
let tail_rank (n : int) : float * int =
  if n < 20 then (0.5, n / 2) else (1.0 -. (10.0 /. float_of_int n), 10)

type tail = {
  t_pct : float;    (** percentile, e.g. 95.0 *)
  t_beyond : int;   (** samples beyond it *)
  t_n : int;        (** sample count *)
  t_value : float;
}

let tail (xs : float array) : tail =
  let n = Array.length xs in
  let q, k = tail_rank n in
  { t_pct = 100.0 *. q; t_beyond = k; t_n = n; t_value = quantile xs q }
