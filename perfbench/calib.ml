(** Host-speed reference: the benchmark's answer to a shared host.

    On a host whose cores are shared with other tenants, the same pass
    over the suite ran anywhere from 1.7 s to 3.1 s within one minute,
    in swings of tens of seconds, with no steal time reported: the
    slowdown is contention for the core and its caches.  Raw wall times
    then measure the neighbours more than the program.

    So the benchmark keeps sampling two small reference kernels of its
    own between ops: a bytecode-style dispatch loop and a stdlib mix
    (formatting, hashing, maps, sorting, MD5).  Of the candidates tried
    (also a pointer chase, independent integer chains and short-lived
    allocation), these two tracked the suite's pass time best: log-log
    correlation 0.97 with slope 0.97 over 33 passes.  A sample's speed
    factor is the geometric mean of each kernel's time over its time on
    a quiet host — 1 on a quiet host, 2 at half speed — and an op's
    normalised time is its wall time divided by the mean factor of the
    two samples before and the two after it.  The kernels are fixed
    benchmark code, so no change to the program moves them. *)

module IntMap = Map.Make (Int)

let now = Unix.gettimeofday
let code = Array.init 256 (fun i -> ((i * 7) + 3) mod 6)
let regs = Array.make 16 0

let dispatch () =
  let pc = ref 0 and acc = ref 1 in
  for _ = 1 to 80_000 do
    (match code.(!pc land 255) with
    | 0 -> acc := !acc + regs.(!pc land 15)
    | 1 -> regs.(!acc land 15) <- !acc
    | 2 -> acc := !acc * 3 land 0xffffff
    | 3 -> if !acc land 1 = 0 then pc := !pc + 3
    | 4 -> acc := !acc lxor (!pc lsl 2)
    | _ -> acc := !acc + 1);
    pc := !pc + 1 + (!acc land 3)
  done;
  !acc

let library () =
  let h = Hashtbl.create 64 in
  let m = ref IntMap.empty in
  let b = Buffer.create 4096 in
  for i = 1 to 300 do
    let k = Printf.sprintf "k%d.%s" (i mod 97) (string_of_float (float_of_int i /. 7.0)) in
    Hashtbl.replace h k i;
    m := IntMap.add (i * 7919 mod 1000) k !m;
    Buffer.add_string b
      (Format.asprintf "@[<hv 2>(%s@ %d@ %a)@]" k i
         (Format.pp_print_list Format.pp_print_int)
         [ i; i + 1; i + 2 ])
  done;
  let l = List.sort compare (Hashtbl.fold (fun k v acc -> (v, k) :: acc) h []) in
  Buffer.length b + List.length l + IntMap.cardinal !m
  + Hashtbl.hash (Digest.string (Buffer.contents b))

(** Each kernel with its time on a quiet host (seconds): the 10th
    percentile of 1572 samples on a 2-core shared Xeon at 2.1 GHz. *)
let kernels = [| (dispatch, 191e-6); (library, 842e-6) |]

type t = {
  mutable samples : (float * float) list;  (** (time, factor), newest first *)
  mutable count : int;
  mutable last : float;
  mutable sorted : (float * float) array;  (** oldest first, once read *)
}

let create () : t = { samples = []; count = 0; last = neg_infinity; sorted = [||] }

(** Run the kernels once and record the host's speed factor. *)
let sample (c : t) : unit =
  let t0 = now () in
  let logs =
    Array.fold_left
      (fun acc (f, quiet) ->
        let t = now () in
        ignore (Sys.opaque_identity (f ()));
        acc +. log ((now () -. t) /. quiet))
      0.0 kernels
  in
  let t1 = now () in
  c.samples <-
    ((t0 +. t1) /. 2.0, exp (logs /. float_of_int (Array.length kernels)))
    :: c.samples;
  c.count <- c.count + 1;
  c.last <- t1

(** Sample unless one was taken within the last [period] seconds, so
    short ops are bracketed closely without paying a sample each. *)
let period = 0.02

let maybe_sample (c : t) : unit = if now () -. c.last >= period then sample c

(** The speed factor around time [t]: the mean of up to two samples
    before it and two after.  1.0 when nothing was sampled. *)
let factor (c : t) (t : float) : float =
  if Array.length c.sorted <> c.count then
    c.sorted <- Array.of_list (List.rev c.samples);
  let a = c.sorted in
  let n = Array.length a in
  if n = 0 then 1.0
  else begin
    (* first sample at or after t *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst a.(mid) < t then lo := mid + 1 else hi := mid
    done;
    let first = max 0 (!lo - 2) and last = min (n - 1) (!lo + 1) in
    let s = ref 0.0 in
    for i = first to last do
      s := !s +. snd a.(i)
    done;
    !s /. float_of_int (last - first + 1)
  end
