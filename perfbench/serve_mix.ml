(** The [serve-mix] workload: a real [muirc serve] daemon, in its own
    process, driven over one Unix-socket connection by a closed loop of
    single-item [run] requests.

    Traffic is DSE-sweep traffic: the distinct cache keys of registry
    workload × registry stack × tiles {1,2,4} × banks {1,2}.  A session
    launches a daemon on an empty cache directory and sends every key of
    the session {!copies} times in a seeded order, so three requests in
    four repeat an earlier key and are answered from the cache. *)

module W = Muir_workloads.Workloads
module J = Muir_trace.Json
module P = Muir_serve.Proto
module Client = Muir_serve.Client
module Config = Muir_dse.Config

let copies = 4

type key = { k_workload : string; k_stack : string; k_tiles : int; k_banks : int }

let key_name (k : key) =
  Fmt.str "%s/%s(tiles=%d,banks=%d)" k.k_workload k.k_stack k.k_tiles k.k_banks

(** Every distinct ([workload], [Config.key]) of the sweep, first
    configuration found kept as the representative, in registry order. *)
let keys () : key array =
  let seen = Hashtbl.create 512 in
  List.concat_map
    (fun (w : W.t) ->
      List.concat_map
        (fun (s : Muir_opt.Stacks.spec) ->
          List.concat_map
            (fun tiles ->
              List.filter_map
                (fun banks ->
                  let id = (w.wname, Config.key (Config.v ~tiles ~banks s.sp_name)) in
                  if Hashtbl.mem seen id then None
                  else begin
                    Hashtbl.add seen id ();
                    Some { k_workload = w.wname; k_stack = s.sp_name;
                           k_tiles = tiles; k_banks = banks }
                  end)
                [ 1; 2 ])
            [ 1; 2; 4 ])
        Muir_opt.Stacks.registry)
    W.all
  |> Array.of_list

let request (id : int) (k : key) : P.request =
  P.Run
    [ { P.it_id = id; it_src = P.Workload k.k_workload; it_stack = k.k_stack;
        it_tiles = Some k.k_tiles; it_banks = Some k.k_banks; it_off = [];
        it_deadline_ms = None; it_jobs = 1 } ]

(* ------------------------------------------------------------------ *)
(* Daemon life cycle                                                   *)

type daemon = { pid : int; fd : Unix.file_descr }

let rec rm_rf (path : string) : unit =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let exited (pid : int) : bool =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(** Wait for [pid] to end; after [grace] seconds, kill it. *)
let reap ?(grace = 10.0) (pid : int) : unit =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if not (exited pid) then
      if Unix.gettimeofday () -. t0 > grace then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      end
      else (Unix.sleepf 0.002; go ())
  in
  go ()

(** Launch [muirc serve -j 1] on an empty cache directory under [dir]
    and wait until it answers a [stats] request.  Returns the daemon and
    the set-up time: launch to first answered request. *)
let launch ~(muirc : string) ~(dir : string) : daemon * float =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "s" in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process muirc
      [| muirc; "serve"; "--socket"; sock; "--cache-dir";
         Filename.concat dir "cache"; "-j"; "1" |]
      Unix.stdin log log
  in
  Unix.close log;
  let rec connect () =
    match Client.connect sock with
    | fd -> fd
    | exception Client.Transport m ->
      if exited pid then failwith ("muirc serve exited before listening: " ^ m)
      else if Unix.gettimeofday () -. t0 > 60.0 then begin
        reap ~grace:0.0 pid;
        failwith ("muirc serve did not start listening: " ^ m)
      end
      else (Unix.sleepf 0.001; connect ())
  in
  let fd = connect () in
  match Client.rpc fd P.Stats with
  | P.Stats_r _ -> ({ pid; fd }, Unix.gettimeofday () -. t0)
  | _ | (exception Client.Transport _) ->
    Unix.close fd;
    reap ~grace:0.0 pid;
    failwith "muirc serve did not answer its first stats request"

(** The daemon's peak resident set, in MB ([VmHWM]). *)
let peak_rss_mb (pid : int) : float =
  let ic = open_in (Fmt.str "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) go in
  float_of_int kb /. 1024.0

let shutdown (d : daemon) : unit =
  (try ignore (Client.rpc d.fd P.Shutdown) with Client.Transport _ -> ());
  (try Unix.close d.fd with Unix.Unix_error _ -> ());
  reap d.pid

(* ------------------------------------------------------------------ *)
(* One session                                                         *)

type reply = {
  q_key : int;
  q_fresh : bool;         (** expected: first occurrence of the key *)
  q_ms : float;           (** client-side round trip *)
  q_bytes : int;          (** response payload bytes *)
  q_cycles : int;         (** the report's simulated cycles; 0 on failure *)
  q_start : float;
}

type session = {
  se_setup : float * float;    (** launch time, seconds to first answer *)
  se_replies : reply list;     (** in send order *)
  se_failed : int;
  se_errors : int;             (** per-item error results *)
  se_rejects : int;            (** request-level error replies *)
  se_findings : string list;
  se_entries : int;
  se_disk_bytes : int;
  se_rss_mb : float;
  se_minor_words : float;      (** this process's GC, during round trips *)
  se_major_gcs : int;
}

(** Run one session: launch, replay the seeded sequence of [round],
    verify every reply (outside the timed round trip), read the
    daemon's cache stats and peak RSS, shut it down. *)
let session ~muirc ~dir ~seed ~round ~(cal : Calib.t) (keys : key array) :
    session =
  Calib.sample cal;
  let t_launch = Unix.gettimeofday () in
  let d, setup = launch ~muirc ~dir in
  Fun.protect ~finally:(fun () -> shutdown d) @@ fun () ->
  let seq = Plan.serve_sequence ~seed ~round ~copies (Array.length keys) in
  let first = Array.make (Array.length keys) None in
  let failed = ref 0 and errors = ref 0 and rejects = ref 0 in
  let findings = ref [] in
  let fail msg = incr failed; findings := msg :: !findings in
  let minor = ref 0.0 and major = ref 0 in
  let replies =
    Array.to_list
      (Array.mapi
         (fun i (k, fresh) ->
           let req = request i keys.(k) in
           Calib.maybe_sample cal;
           let g0 = Gc.quick_stat () in
           let t0 = Unix.gettimeofday () in
           let resp =
             try Ok (Client.rpc d.fd req) with Client.Transport m -> Error m
           in
           let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
           let g1 = Gc.quick_stat () in
           minor := !minor +. (g1.minor_words -. g0.minor_words);
           major := !major + (g1.major_collections - g0.major_collections);
           let bytes =
             match resp with
             | Ok r -> String.length (P.response_to_string r)
             | Error _ -> 0
           in
           let name = key_name keys.(k) in
           let cycles =
             match resp with
             | Error m -> fail (Fmt.str "%s: transport: %s" name m); 0
             | Ok (P.Results { results = [ { rs_outcome = P.Ok_ { cached; report }; _ } ]; _ }) ->
               let text = J.to_string report in
               (match first.(k) with
               | None -> first.(k) <- Some text
               | Some want when want <> text ->
                 fail (Fmt.str "%s: cached report differs from the fresh one" name)
               | Some _ -> ());
               if cached = fresh then
                 fail
                   (Fmt.str "%s: expected a %s reply" name
                      (if fresh then "fresh" else "cached"));
               (match Option.bind (J.member "run" report) (J.member "cycles") with
               | Some (J.Int c) -> c
               | _ -> 0)
             | Ok (P.Results { results = [ { rs_outcome = P.Err { code; msg; _ }; _ } ]; _ }) ->
               incr errors;
               fail (Fmt.str "%s: error %s: %s" name code msg); 0
             | Ok (P.Error_r { code; msg }) ->
               incr rejects;
               fail (Fmt.str "%s: rejected %s: %s" name code msg); 0
             | Ok _ -> fail (Fmt.str "%s: unexpected reply shape" name); 0
           in
           { q_key = k; q_fresh = fresh; q_ms = ms; q_bytes = bytes;
             q_cycles = cycles; q_start = t0 })
         seq)
  in
  let entries, disk =
    match Client.rpc d.fd P.Stats with
    | P.Stats_r s -> (s.st_cache_entries, s.st_cache_disk_bytes)
    | _ | (exception Client.Transport _) -> (0, 0)
  in
  { se_setup = (t_launch, setup); se_replies = replies; se_failed = !failed;
    se_errors = !errors; se_rejects = !rejects;
    se_findings = List.rev !findings; se_entries = entries;
    se_disk_bytes = disk; se_rss_mb = peak_rss_mb d.pid;
    se_minor_words = !minor; se_major_gcs = !major }
