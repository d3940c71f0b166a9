(** The daemon's persistent, content-addressed result cache: an
    in-memory table from item key to report payload with an on-disk
    backing store, so a repeated batch costs zero fresh simulations
    {e across daemon restarts}.

    {2 Layout}

    Each entry is its own file, [<dir>/<md5hex-of-key>.rc], holding

    {v
    muir-rcache-v1 <md5hex-of-payload> <key-len> <payload-len>\n
    <key><payload>
    v}

    The payload is the deterministic JSON of a
    {!Muir_trace.Report} — schema-versioned by the report itself, so
    a cache written by an older toolchain revision is simply a
    collection of reports that no current key maps to.  The header
    checksum covers the payload; the filename covers the key.  At
    {!create} every entry is loaded and validated eagerly: a file with
    a bad magic, a mismatched checksum, truncated lengths, or a
    filename that does not hash its own key is deleted and counted in
    [corrupt] — the daemon warms from whatever survives and never
    crashes on a mangled store.

    Writes are atomic (temp file + [Unix.rename] in the same
    directory), so a daemon killed mid-write leaves at worst a stale
    [.tmp] file, never a torn entry.  A write that fails (the directory
    was removed, the disk is full) removes its temp file and raises
    {!Write_error}; the entry stays in memory, so the caller can still
    answer from it and the process keeps serving.

    The daemon's evaluation memo ({!Muir_dse.Eval.memo}) holds the
    same payload strings as this cache and lives in memory only: this
    format does not record digests.  The cache counts nothing but the
    entries it discarded at load: the daemon counts its hits and misses
    in its metrics registry ({!Server}). *)

type t = {
  rc_dir : string option;               (** [None] = memory-only *)
  rc_mem : (string, string) Hashtbl.t;  (** key → report-JSON payload *)
  mutable rc_corrupt : int;             (** entries discarded at load *)
}

type stats = {
  entries : int;
  corrupt : int;
  disk_bytes : int;
      (** bytes of the entry files present; 0 for memory-only caches *)
}

let magic = "muir-rcache-v1"

let entry_path (dir : string) (key : string) : string =
  Filename.concat dir (Digest.to_hex (Digest.string key) ^ ".rc")

(* ------------------------------------------------------------------ *)
(* On-disk entry codec                                                 *)

(** The header line of an entry; the key and the payload follow it. *)
let entry_header (key : string) (payload : string) : string =
  Fmt.str "%s %s %d %d\n" magic
    (Digest.to_hex (Digest.string payload))
    (String.length key) (String.length payload)

(** Decode and validate one entry file's contents against its
    filename; [Error reason] for anything mangled. *)
let decode_entry ~(path : string) (s : string) :
    (string * string, string) result =
  match String.index_opt s '\n' with
  | None -> Error "no header line"
  | Some nl -> (
    let header = String.sub s 0 nl in
    match String.split_on_char ' ' header with
    | [ m; sum; klen_s; plen_s ] when m = magic -> (
      match (int_of_string_opt klen_s, int_of_string_opt plen_s) with
      | Some klen, Some plen
        when klen >= 0 && plen >= 0
             && String.length s = nl + 1 + klen + plen -> (
        let key = String.sub s (nl + 1) klen in
        let payload = String.sub s (nl + 1 + klen) plen in
        if Digest.to_hex (Digest.string payload) <> sum then
          Error "payload checksum mismatch"
        else if
          Filename.basename path <> Digest.to_hex (Digest.string key) ^ ".rc"
        then Error "filename does not match key hash"
        else
          (* The payload must still parse as JSON: a torn write that
             happens to keep its length honest is caught here. *)
          match Muir_trace.Json.parse payload with
          | _ -> Ok (key, payload)
          | exception Muir_trace.Json.Parse_error _ ->
            Error "payload is not valid JSON")
      | _ -> Error "truncated or inconsistent lengths")
    | _ -> Error "bad magic or header shape")

exception Write_error of string * string  (** path, reason *)

(** Replace [path] with the concatenation of [parts] through a temp
    file beside it and a rename; on failure the temp file is removed.
    @raise Write_error naming [path] and the reason *)
let write_atomic (path : string) (parts : string list) : unit =
  let fail reason = raise (Write_error (path, reason)) in
  match
    Filename.open_temp_file ~mode:[ Open_binary ]
      ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
  with
  | exception Sys_error m -> fail m
  | tmp, oc -> (
    let discard () =
      close_out_noerr oc;
      try Sys.remove tmp with Sys_error _ -> ()
    in
    match
      List.iter (output_string oc) parts;
      close_out oc;
      Unix.rename tmp path
    with
    | () -> ()
    | exception Sys_error m ->
      discard ();
      fail m
    | exception Unix.Unix_error (e, _, _) ->
      discard ();
      fail (Unix.error_message e))

(* ------------------------------------------------------------------ *)

let load_dir (t : t) (dir : string) : unit =
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".rc" then begin
        let path = Filename.concat dir name in
        match In_channel.with_open_bin path In_channel.input_all with
        | contents -> (
          match decode_entry ~path contents with
          | Ok (key, payload) -> Hashtbl.replace t.rc_mem key payload
          | Error _ ->
            (try Sys.remove path with Sys_error _ -> ());
            t.rc_corrupt <- t.rc_corrupt + 1)
        | exception Sys_error _ -> t.rc_corrupt <- t.rc_corrupt + 1
      end)
    (Sys.readdir dir)

(** Open (and eagerly warm from) a cache directory; the directory is
    created if missing.  [?dir:None] gives a memory-only cache with
    identical semantics minus persistence. *)
let create ?dir () : t =
  let t =
    { rc_dir = dir; rc_mem = Hashtbl.create 64; rc_corrupt = 0 }
  in
  (match dir with
  | None -> ()
  | Some d ->
    if not (Sys.file_exists d) then Unix.mkdir d 0o755;
    load_dir t d);
  t

(** The payload stored under [key], if any. *)
let find (t : t) (key : string) : string option = Hashtbl.find_opt t.rc_mem key

(** Record a freshly paid-for payload and persist the entry atomically
    when the cache is disk-backed.  The entry is in memory even when
    the write fails.
    @raise Write_error when the entry file cannot be written *)
let add (t : t) (key : string) (payload : string) : unit =
  Hashtbl.replace t.rc_mem key payload;
  match t.rc_dir with
  | None -> ()
  | Some dir ->
    write_atomic (entry_path dir key) [ entry_header key payload; key; payload ]

(** Sum of the sizes of the entry files in the cache directory, measured
    now: files removed behind the daemon's back, or the whole directory,
    stop counting. *)
let disk_bytes (t : t) : int =
  match t.rc_dir with
  | None -> 0
  | Some dir -> (
    match Sys.readdir dir with
    | exception Sys_error _ -> 0
    | names ->
      Array.fold_left
        (fun n name ->
          if not (Filename.check_suffix name ".rc") then n
          else
            match Unix.stat (Filename.concat dir name) with
            | st -> n + st.Unix.st_size
            | exception Unix.Unix_error _ -> n)
        0 names)

let stats (t : t) : stats =
  { entries = Hashtbl.length t.rc_mem; corrupt = t.rc_corrupt;
    disk_bytes = disk_bytes t }
