(** Deterministic dataset generation for the workloads (a fixed LCG,
    so every run of every substrate sees identical data). *)

open Muir_ir.Types

type gen = { mutable state : int64 }

let create seed = { state = Int64.of_int (seed * 2654435761 + 12345) }

let next (g : gen) : int64 =
  g.state <-
    Int64.add (Int64.mul g.state 6364136223846793005L) 1442695040888963407L;
  Int64.shift_right_logical g.state 17

(** Uniform float in [lo, hi). *)
let float_in (g : gen) lo hi =
  let u =
    Int64.to_float (Int64.logand (next g) 0xFFFFFFL) /. 16777216.0
  in
  lo +. (u *. (hi -. lo))

let int_in (g : gen) lo hi =
  lo + Int64.to_int (Int64.rem (next g) (Int64.of_int (hi - lo)))

let floats ?(seed = 1) ?(lo = -1.0) ?(hi = 1.0) n : value array =
  let g = create seed in
  Array.init n (fun _ -> VFloat (float_in g lo hi))

(** Bit reversal permutation table for an [n]-point FFT. *)
let bitrev_table n : value array =
  let bits =
    int_of_float (Float.round (Float.log2 (float_of_int n)))
  in
  Array.init n (fun i ->
      let r = ref 0 in
      for b = 0 to bits - 1 do
        if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
      done;
      vint !r)

(** Per-stage twiddle steps for an [n]-point FFT: stage [s] uses
    w_len = exp(-2πi / 2^(s+1)). *)
let twiddle_steps n : value array * value array =
  let stages =
    int_of_float (Float.round (Float.log2 (float_of_int n)))
  in
  let wr =
    Array.init stages (fun s ->
        VFloat (Float.cos (-2.0 *. Float.pi /. float_of_int (1 lsl (s + 1)))))
  in
  let wi =
    Array.init stages (fun s ->
        VFloat (Float.sin (-2.0 *. Float.pi /. float_of_int (1 lsl (s + 1)))))
  in
  (wr, wi)

(** Full twiddle ROM for an [n]-point FFT: W_n^k = exp(-2πik/n) for
    k in [0, n/2). *)
let twiddle_table n : value array * value array =
  let half = n / 2 in
  let wr =
    Array.init half (fun k ->
        VFloat (Float.cos (-2.0 *. Float.pi *. float_of_int k
                           /. float_of_int n)))
  in
  let wi =
    Array.init half (fun k ->
        VFloat (Float.sin (-2.0 *. Float.pi *. float_of_int k
                           /. float_of_int n)))
  in
  (wr, wi)

(** CSR sparse matrix with [nnz_per_row] entries per row. *)
let csr ?(seed = 7) ~rows ~cols ~nnz_per_row () :
    value array * value array * value array =
  let g = create seed in
  let rowptr = Array.init (rows + 1) (fun r -> vint (r * nnz_per_row)) in
  let colidx =
    Array.init (rows * nnz_per_row) (fun _ -> vint (int_in g 0 cols))
  in
  let vals =
    Array.init (rows * nnz_per_row) (fun _ -> VFloat (float_in g (-1.0) 1.0))
  in
  (rowptr, colidx, vals)
