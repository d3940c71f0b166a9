(** Client side of the serve protocol: connect, one request/response
    round trip per call, over the same length-prefixed frames the
    daemon speaks. *)

exception Transport of string

let connect (socket : string) : Unix.file_descr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise
      (Transport (Fmt.str "cannot connect to %s: %s" socket (Unix.error_message e)))

(* Write [payload] as one frame.  A daemon that closed the connection
   (it died or drained) makes the write raise SIGPIPE, whose default
   action kills the client without a word; it is ignored for this write
   alone, which then fails with [EPIPE], and the previous disposition
   comes back, so [muirc client ... | head] still ends quietly. *)
let write_request (fd : Unix.file_descr) (payload : string) : unit =
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe sigpipe)
    (fun () -> Proto.write_frame fd payload)

(** One round trip: send [req], block for the response frame. *)
let rpc ?max_frame (fd : Unix.file_descr) (req : Proto.request) :
    Proto.response =
  (match write_request fd (Proto.request_to_string req) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
    raise (Transport ("write: " ^ Unix.error_message e)));
  match Proto.read_frame ?max_frame fd with
  | Some payload -> (
    match Proto.response_of_string payload with
    | r -> r
    | exception Proto.Bad_response m ->
      raise (Transport ("malformed response: " ^ m)))
  | None -> raise (Transport "daemon closed the connection")
  | exception Proto.Frame_error m -> raise (Transport m)
  | exception Proto.Oversize n ->
    raise (Transport (Fmt.str "oversize response frame (%d bytes)" n))
  | exception Unix.Unix_error (e, _, _) ->
    raise (Transport ("read: " ^ Unix.error_message e))

let with_connection (socket : string) (f : Unix.file_descr -> 'a) : 'a =
  let fd = connect socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)
