(** Runtime model of the memory structures: banked scratchpads and
    set-associative caches in front of DRAM, fed through per-tile
    junctions.  Functional data lives in the shared flat
    {!Muir_ir.Memory} so results can be compared against the golden
    interpreter; the structures model timing (latency, bank conflicts,
    misses) and enforce per-bank FIFO order.

    Everything on the per-cycle path is preallocated struct-of-arrays:
    accesses carry their words as flat {!Muir_ir.Flat} columns and own
    a reusable set of sub-request buffers (the issuing node pools one
    access per outstanding-request slot), banks are rings of
    sub-requests, the cache tag stores are flat MRU arrays, and
    completions sit in a ring-buffer timing wheel — the steady state
    allocates nothing on the minor heap. *)

module G = Muir_core.Graph
module T = Muir_ir.Types
module F = Muir_ir.Flat
module Ctr = Muir_trace.Counters

(** One word-group processed by a single bank access.  The buffers are
    owned (and reused) by the parent access; [sr_n] addresses are
    live. *)
type subreq = {
  sr_addrs : int array;         (** consecutive-ish words served together *)
  mutable sr_n : int;
  sr_access : access;
}

(** A whole load/store as issued by a node: possibly many sub-requests
    (tile accesses through the databox, §3.4).  Word data travels in
    flat columns: stores carry their data in, loads get their data
    written back ([tabsent] rows have not completed). *)
and access = {
  mutable a_is_store : bool;
  a_addrs : int array;
  a_tags : int array;
  a_nums : int array;
  a_flts : float array;
  a_objs : T.value array;
  mutable a_n : int;            (** live words *)
  mutable a_pending : int;      (** sub-requests still in flight *)
  mutable a_done : bool;
  mutable a_notify : unit -> unit;
      (** called once when the access completes, so the issuing node
          is woken instead of polled every cycle *)
  mutable a_orphan : bool;
      (** popped from its node's in-flight window while sub-requests
          were still draining (write-buffered stores): the completion
          callback returns it to the pool instead of waking the node *)
  mutable a_srs : subreq array; (** one per possible word, reused;
                                    patched once at construction to tie
                                    the access <-> subreq knot *)
  mutable a_nsrs : int;
}

(** A reusable access with room for [words] words.  The issuing node
    pools these (one per outstanding-request slot) with a preallocated
    [notify], so steady-state memory traffic allocates nothing. *)
let make_access ~(words : int) ~(notify : unit -> unit) : access =
  let w = max words 1 in
  let a =
    { a_is_store = false; a_addrs = Array.make w 0;
      a_tags = Array.make w F.tabsent; a_nums = Array.make w 0;
      a_flts = Array.make w 0.0; a_objs = Array.make w F.no_obj;
      a_n = 0; a_pending = 0; a_done = false;
      a_notify = notify; a_orphan = false; a_srs = [||]; a_nsrs = 0 }
  in
  a.a_srs <-
    Array.init w (fun _ ->
        { sr_addrs = Array.make w 0; sr_n = 0; sr_access = a });
  a

(** Reset [a] for reissue from its pool slot. *)
let reset_access (a : access) ~(is_store : bool) : unit =
  a.a_is_store <- is_store;
  a.a_n <- 0;
  a.a_pending <- 0;
  a.a_done <- false;
  a.a_orphan <- false;
  a.a_nsrs <- 0

type bank = {
  mutable bq : subreq array;    (** FIFO ring, power-of-two sized *)
  mutable bq_head : int;
  mutable bq_n : int;
  mutable busy_until : int;
}

let bank_push (b : bank) (sr : subreq) : unit =
  let cap = Array.length b.bq in
  if b.bq_n = cap then begin
    let nq = Array.make (Int.max 4 (cap * 2)) sr in
    for i = 0 to b.bq_n - 1 do
      nq.(i) <- b.bq.((b.bq_head + i) land (cap - 1))
    done;
    b.bq <- nq;
    b.bq_head <- 0
  end;
  let i = (b.bq_head + b.bq_n) land (Array.length b.bq - 1) in
  if b.bq.(i) != sr then b.bq.(i) <- sr;
  b.bq_n <- b.bq_n + 1

let bank_pop (b : bank) : subreq =
  let sr = b.bq.(b.bq_head) in
  b.bq_head <- (b.bq_head + 1) land (Array.length b.bq - 1);
  b.bq_n <- b.bq_n - 1;
  sr

(** MRU-first tag store of one cache: per (bank, set), up to [ways]
    line numbers in a flat array. *)
type tagstore = {
  sets : int;
  ways : int;
  t_lines : int array;   (** (bank*sets + set)*ways + way, MRU first *)
  t_n : int array;       (** valid ways per (bank, set) *)
}

let make_tagstore ~(sets : int) ~(ways : int) ~(nbanks : int) : tagstore =
  { sets; ways; t_lines = Array.make (sets * nbanks * ways) (-1);
    t_n = Array.make (sets * nbanks) 0 }

type struct_rt = {
  inst : G.struct_inst;
  banks : bank array;
  tags : tagstore option;  (** caches only *)
  mutable hits : int;
  mutable misses : int;
  mutable prefetches : int;
  mutable accesses : int;
  mutable conflicts : int;
      (** sub-requests that arrived at a bank already holding queued
          work — the paper's bank-conflict counter *)
  occ : Ctr.occ_ctr;
      (** sub-requests queued across the banks: the depth {!step}
          checks before touching any bank, and its occupancy integral *)
}

(* Completions timing wheel: slot = ready-cycle mod size; entries keep
   their absolute cycle, so a slot can safely hold far-future rows. *)
let cw_size = 256

type cslot = {
  mutable ca : access array;
  mutable cc : int array;       (** absolute ready cycle per entry *)
  mutable cn : int;
}

type t = {
  mem : Muir_ir.Memory.t;
  structs : struct_rt array;    (** circuit declaration order *)
  space_of : G.space_id -> struct_rt;
  completions : cslot array;    (** [cw_size] slots *)
  mutable total_requests : int;
}

(** Runtime state for [c]'s structures over [mem].  Queue occupancy is
    integrated into [ctrs] under [Kstruct sid] (a private bank by
    default). *)
let create ?(ctrs = Ctr.create ()) (c : G.circuit) (mem : Muir_ir.Memory.t)
    : t =
  let mk_rt (s : G.struct_inst) =
    let nbanks =
      match s.shape with
      | Scratchpad { banks; _ } | Cache { banks; _ } -> banks
    in
    let nbanks = max nbanks 1 in
    let tags =
      match s.shape with
      | Scratchpad _ -> None
      | Cache { banks; line_words; size_words; ways; _ } ->
        let sets = max 1 (size_words / (line_words * ways * banks)) in
        Some (make_tagstore ~sets ~ways ~nbanks)
    in
    { inst = s;
      banks =
        Array.init nbanks (fun _ ->
            { bq = [||]; bq_head = 0; bq_n = 0; busy_until = 0 });
      tags; hits = 0; misses = 0; prefetches = 0; accesses = 0;
      conflicts = 0; occ = Ctr.occ_ref ctrs (Ctr.Kstruct s.sid) }
  in
  let structs = Array.of_list (List.map mk_rt c.structures) in
  let sids = Array.map (fun rt -> rt.inst.G.sid) structs in
  let find_sid sid =
    let rec go i =
      if i >= Array.length structs then
        invalid_arg "Memsys: unknown structure"
      else if sids.(i) = sid then structs.(i)
      else go (i + 1)
    in
    go 0
  in
  (* Dense space -> structure table for the mapped spaces; anything
     unmapped resolves through [G.structure_of_space] (cold). *)
  let max_sp =
    List.fold_left (fun acc (sp, _) -> max acc sp) 0 c.space_map
  in
  let by_space = Array.make (max_sp + 1) None in
  List.iter
    (fun (sp, sid) ->
      if sp >= 0 then by_space.(sp) <- Some (find_sid sid))
    c.space_map;
  let space_of sp =
    if sp >= 0 && sp <= max_sp then
      match by_space.(sp) with
      | Some rt -> rt
      | None -> find_sid (G.structure_of_space c sp).sid
    else find_sid (G.structure_of_space c sp).sid
  in
  { mem; structs; space_of;
    completions =
      Array.init cw_size (fun _ -> { ca = [||]; cc = [||]; cn = 0 });
    total_requests = 0 }

(* ------------------------------------------------------------------ *)
(* Access construction (the databox, §3.4)                             *)

let new_subreq (a : access) (j : int) : subreq =
  let sr = a.a_srs.(j) in
  sr.sr_n <- 0;
  sr

(** Group an access's words into bank transactions, into the access's
    own sub-request buffers: scratchpads serve up to [width_words]
    consecutive words per access; caches serve one line per access
    (the databox coalesces words of the same line, first-occurrence
    order). *)
(* Find the open sub-request already covering cache line [line], or
   -1.  Top-level so the per-access split path allocates nothing. *)
let rec find_line (a : access) (lw : int) (line : int) (j : int) : int =
  if j >= a.a_nsrs then -1
  else if a.a_srs.(j).sr_addrs.(0) / lw = line then j
  else find_line a lw line (j + 1)

(* Insertion-sort shift for the cache-order emulation below: slide
   entries with a smaller bucket index up one slot, returning the
   insertion point for a row whose bucket index is [b]. *)
let rec sift_sr (a : access) (lw : int) (b : int) (j : int) : int =
  if
    j > 0 && Hashtbl.hash (a.a_srs.(j - 1).sr_addrs.(0) / lw) land 15 < b
  then begin
    a.a_srs.(j) <- a.a_srs.(j - 1);
    sift_sr a lw b (j - 1)
  end
  else j

let split (rt : struct_rt) (a : access) : unit =
  a.a_nsrs <- 0;
  (match rt.inst.shape with
  | Scratchpad { width_words; _ } ->
    let width = Int.max width_words 1 in
    for i = 0 to a.a_n - 1 do
      if i mod width = 0 then begin
        ignore (new_subreq a a.a_nsrs);
        a.a_nsrs <- a.a_nsrs + 1
      end;
      let sr = a.a_srs.(a.a_nsrs - 1) in
      sr.sr_addrs.(sr.sr_n) <- a.a_addrs.(i);
      sr.sr_n <- sr.sr_n + 1
    done
  | Cache { line_words; _ } ->
    let lw = Int.max line_words 1 in
    for i = 0 to a.a_n - 1 do
      let w = a.a_addrs.(i) in
      let line = w / lw in
      let j = find_line a lw line 0 in
      let sr =
        if j >= 0 then a.a_srs.(j)
        else begin
          let sr = new_subreq a a.a_nsrs in
          a.a_nsrs <- a.a_nsrs + 1;
          sr
        end
      in
      sr.sr_addrs.(sr.sr_n) <- w;
      sr.sr_n <- sr.sr_n + 1
    done;
    (* Transaction order is timing-visible (bank-queue service and
       prefetch order).  The reference implementation grouped lines in
       a 16-bucket hash table and emitted Hashtbl.fold's order
       reversed — bucket index descending, first-occurrence order
       within a bucket — so reproduce that exactly. *)
    if a.a_nsrs > 1 then
      for i = 1 to a.a_nsrs - 1 do
        let sr = a.a_srs.(i) in
        let b = Hashtbl.hash (sr.sr_addrs.(0) / lw) land 15 in
        let j = sift_sr a lw b i in
        a.a_srs.(j) <- sr
      done);
  a.a_pending <- a.a_nsrs

(** Which bank serves a sub-request. *)
let bank_of (rt : struct_rt) (sr : subreq) : int =
  let nbanks = Array.length rt.banks in
  match rt.inst.shape with
  | Scratchpad { width_words; _ } ->
    (sr.sr_addrs.(0) / Int.max width_words 1) mod nbanks
  | Cache { line_words; _ } -> sr.sr_addrs.(0) / line_words mod nbanks

(** Enqueue a sub-request at its bank during cycle [now]; a non-empty
    bank queue means this request collided with in-flight work on the
    same bank. *)
let enqueue (ms : t) (rt : struct_rt) (sr : subreq) ~(now : int) : unit =
  ms.total_requests <- ms.total_requests + 1;
  let b = rt.banks.(bank_of rt sr) in
  if b.bq_n > 0 then rt.conflicts <- rt.conflicts + 1;
  bank_push b sr;
  Ctr.occ_move rt.occ 1 ~at:(now + 1)

(* ------------------------------------------------------------------ *)
(* Cache tag handling                                                  *)

(* Both scans are top-level: a local [let rec] would close over the
   tagstore and allocate on every lookup. *)
let rec line_mem (ts : tagstore) (base : int) (line : int) (i : int)
    (n : int) : bool =
  i < n && (ts.t_lines.(base + i) = line || line_mem ts base line (i + 1) n)

let rec line_find (ts : tagstore) (base : int) (line : int) (i : int)
    (n : int) : int =
  if i >= n then -1
  else if ts.t_lines.(base + i) = line then i
  else line_find ts base line (i + 1) n

let insert_line (ts : tagstore) ~(nbanks : int) (line : int) : unit =
  let bank = line mod nbanks in
  let set = line / nbanks mod ts.sets in
  let idx = (bank * ts.sets) + set in
  let base = idx * ts.ways in
  let n = ts.t_n.(idx) in
  if not (line_mem ts base line 0 n) then begin
    let keep = Int.min n (ts.ways - 1) in
    for i = keep downto 1 do
      ts.t_lines.(base + i) <- ts.t_lines.(base + i - 1)
    done;
    ts.t_lines.(base) <- line;
    ts.t_n.(idx) <- keep + 1
  end

let cache_lookup (ts : tagstore) ~(nbanks : int) ~(line_words : int)
    (addr : int) : bool =
  let line = addr / line_words in
  let bank = line mod nbanks in
  let set = line / nbanks mod ts.sets in
  let idx = (bank * ts.sets) + set in
  let base = idx * ts.ways in
  let n = ts.t_n.(idx) in
  let hit = line_find ts base line 0 n in
  if hit >= 0 then begin
    (* MRU touch *)
    for i = hit downto 1 do
      ts.t_lines.(base + i) <- ts.t_lines.(base + i - 1)
    done;
    ts.t_lines.(base) <- line;
    true
  end
  else begin
    insert_line ts ~nbanks line;
    false
  end

(* ------------------------------------------------------------------ *)
(* Per-cycle advance                                                   *)

(* First slot of [a] holding address [w]. *)
let rec addr_slot (a : access) (w : int) (j : int) : int =
  if j >= a.a_n then -1
  else if a.a_addrs.(j) = w then j
  else addr_slot a w (j + 1)

let perform_word (ms : t) (a : access) (w : int) : unit =
  let j0 = addr_slot a w 0 in
  if j0 >= 0 then
    if a.a_is_store then
      Muir_ir.Memory.store_from ms.mem w a.a_tags a.a_nums a.a_flts a.a_objs
        j0
    else begin
      Muir_ir.Memory.load_into ms.mem w a.a_tags a.a_nums a.a_flts a.a_objs
        j0;
      (* duplicate addresses within the access see the same word *)
      for j = j0 + 1 to a.a_n - 1 do
        if a.a_addrs.(j) = w then begin
          a.a_tags.(j) <- a.a_tags.(j0);
          a.a_nums.(j) <- a.a_nums.(j0);
          a.a_flts.(j) <- a.a_flts.(j0);
          a.a_objs.(j) <- a.a_objs.(j0)
        end
      done
    end

let perform_words (ms : t) (a : access) (sr : subreq) : unit =
  for i = 0 to sr.sr_n - 1 do
    perform_word ms a sr.sr_addrs.(i)
  done

let complete_at (ms : t) (ready : int) (a : access) : unit =
  let s = ms.completions.(ready land (cw_size - 1)) in
  let cap = Array.length s.ca in
  if s.cn = cap then begin
    let ncap = max 8 (cap * 2) in
    let nca = Array.make ncap a and ncc = Array.make ncap 0 in
    Array.blit s.ca 0 nca 0 s.cn;
    Array.blit s.cc 0 ncc 0 s.cn;
    s.ca <- nca;
    s.cc <- ncc
  end;
  if s.ca.(s.cn) != a then s.ca.(s.cn) <- a;
  s.cc.(s.cn) <- ready;
  s.cn <- s.cn + 1

(* Deliver completions that are due: scan the cycle's wheel slot,
   compacting rows whose absolute cycle lies a full wheel turn ahead.
   Tail-recursive with the keep cursor as an argument — this runs
   every cycle and must not allocate. *)
let rec drain_completions (s : cslot) (now : int) (i : int) (n : int)
    (kept : int) : int =
  if i >= n then kept
  else if s.cc.(i) = now then begin
    let a = s.ca.(i) in
    a.a_pending <- a.a_pending - 1;
    if a.a_pending <= 0 then begin
      a.a_done <- true;
      a.a_notify ()
    end;
    drain_completions s now (i + 1) n kept
  end
  else begin
    s.ca.(kept) <- s.ca.(i);
    s.cc.(kept) <- s.cc.(i);
    drain_completions s now (i + 1) n (kept + 1)
  end

(* One bank access: pop the head sub-request, look it up, perform its
   words and schedule its completion. *)
let serve (ms : t) (rt : struct_rt) (b : bank) ~(now : int) : unit =
  let sr = bank_pop b in
  Ctr.occ_move rt.occ (-1) ~at:(now + 1);
  let a = sr.sr_access in
  rt.accesses <- rt.accesses + 1;
  let lat =
    match rt.inst.shape with
    | Scratchpad { latency; _ } -> latency
    | Cache { hit_latency; miss_latency; line_words; _ } ->
      let hit =
        match rt.tags with
        | Some ts ->
          cache_lookup ts ~nbanks:(Array.length rt.banks) ~line_words
            sr.sr_addrs.(0)
        | None -> true
      in
      if hit then begin
        rt.hits <- rt.hits + 1;
        (* single-ported SRAM macro: one access per two cycles per
           bank *)
        b.busy_until <- now + 2;
        hit_latency
      end
      else begin
        rt.misses <- rt.misses + 1;
        (* the miss occupies the bank for the DRAM command slot, not
           the full round trip — misses to a bank overlap (MSHR-style);
           a next-line prefetch rides the open DRAM row, so unit-stride
           streams are bandwidth-bound *)
        (match rt.tags with
        | Some ts ->
          rt.prefetches <- rt.prefetches + 1;
          insert_line ts ~nbanks:(Array.length rt.banks)
            ((sr.sr_addrs.(0) / line_words) + 1)
        | None -> ());
        b.busy_until <- now + (miss_latency / 5);
        miss_latency
      end
  in
  perform_words ms a sr;
  complete_at ms (now + lat) a

(** Advance every structure with queued work by one cycle: each bank
    processes up to [ports_per_bank] queued sub-requests (1 for
    caches), misses keep the bank busy for the DRAM round trip.  An
    idle structure costs one depth check. *)
let step (ms : t) ~(now : int) : unit =
  for si = 0 to Array.length ms.structs - 1 do
    let rt = ms.structs.(si) in
    if rt.occ.Ctr.o_depth > 0 then begin
      let ports =
        match rt.inst.shape with
        | Scratchpad { ports_per_bank; _ } -> ports_per_bank
        | Cache _ -> 1
      in
      for bi = 0 to Array.length rt.banks - 1 do
        let b = rt.banks.(bi) in
        for _ = 1 to ports do
          if b.busy_until <= now && b.bq_n > 0 then serve ms rt b ~now
        done
      done
    end
  done;
  (* Deliver completions that are due: scan this cycle's wheel slot,
     keeping rows whose absolute cycle lies a full wheel turn ahead. *)
  let s = ms.completions.(now land (cw_size - 1)) in
  if s.cn > 0 then s.cn <- drain_completions s now 0 s.cn 0

(** Does this structure acknowledge stores from a write-back buffer? *)
let store_buffered (rt : struct_rt) : bool =
  match rt.inst.shape with
  | G.Scratchpad { wb_buffer; _ } -> wb_buffer
  | G.Cache _ -> false

(** Assemble a tile from a completed tensor load, in the word order the
    access was built with. *)
let tile_value (a : access) : T.value =
  let data =
    Array.init a.a_n (fun j ->
        let t = a.a_tags.(j) in
        if t = F.tfloat then a.a_flts.(j)
        else if t = F.tint then float_of_int a.a_nums.(j)
        else
          match a.a_objs.(j) with
          | T.VInt i -> Int64.to_float i
          | _ -> 0.0)
  in
  T.VTensor data

type struct_stats = {
  ss_name : string;
  ss_accesses : int;
  ss_hits : int;
  ss_misses : int;
  ss_conflicts : int;
}

let rec bank_depth_from (rt : struct_rt) (b : int) (d : int) : int =
  if b >= Array.length rt.banks then d
  else bank_depth_from rt (b + 1) (d + rt.banks.(b).bq_n)

(** Queued sub-requests per structure right now, summed over the bank
    queues themselves — the signal the tracer samples each cycle, kept
    independent of the lazily integrated [occ] counters it checks. *)
let occupancy (ms : t) : (G.struct_id * int) list =
  Array.to_list
    (Array.map (fun rt -> (rt.inst.G.sid, bank_depth_from rt 0 0)) ms.structs)

let stats (ms : t) : struct_stats list =
  Array.to_list
    (Array.map
       (fun rt ->
         { ss_name = rt.inst.G.sname; ss_accesses = rt.accesses;
           ss_hits = rt.hits; ss_misses = rt.misses;
           ss_conflicts = rt.conflicts })
       ms.structs)
