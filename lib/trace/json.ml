(** A minimal JSON layer shared by every machine-readable emitter in
    the toolchain: the Chrome trace exporter, the run-report writer,
    the design-space explorer, telemetry and the serve wire protocol.
    Every emitter builds a {!t} and prints it here (the Chrome trace
    writer prints one event at a time through {!print}), so escaping
    lives only inside the printer.  No external dependency: this is a
    tiny value type, a compact printer and a strict recursive-descent
    parser.

    Numbers keep their source representation split between [Int] and
    [Float] so integer counters round-trip byte-exactly (a cycle count
    never grows a [.0] suffix), which the byte-reproducible run reports
    rely on.  The literal [-0] parses as [Float (-0.)], the value that
    prints it, so [to_string (parse (to_string v)) = to_string v] holds
    for every tree.

    {2 Scanner}

    The parser reads the input by index: no value is allocated per
    character.  A string without escapes is sliced out of the input
    once, and only a string with escapes is assembled in a buffer; an
    integer of at most 18 digits is accumulated as it is scanned, and
    any other number is sliced once.

    Input is checked as RFC 8259 asks: an escaped surrogate pair
    ([\ud83d\ude00]) decodes to its 4-byte UTF-8 sequence, a lone
    surrogate and a leading zero ([01]) are errors, and nesting deeper
    than {!max_depth} arrays and objects is an error — so a hostile
    frame of nested brackets costs a bounded stack, not the heap.

    {2 Verbatim text}

    [Raw text] prints [text] unchanged.  It holds text that {!to_string}
    printed — the daemon splices a stored run report into its reply
    this way instead of parsing and re-printing it — so the output
    stays valid JSON and byte-identical to printing the parsed tree.
    {!parse} never produces [Raw], and the accessors treat it as an
    opaque value. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string  (** text printed by {!to_string}, printed verbatim *)

(* ------------------------------------------------------------------ *)
(* Escaping (RFC 8259 §7)                                              *)

(** Append [s] to [buf] as the body of a JSON string literal: quote and
    backslash get their two-character escapes, the named control
    characters their short forms, every other control character a
    [\u00XX] escape.  Other ASCII and well-formed UTF-8 pass through;
    each malformed UTF-8 sequence prints as U+FFFD, so the text is
    always UTF-8, as RFC 8259 requires and {!parse} checks.  Runs that
    need no escaping are copied in one piece. *)
let add_escaped (buf : Buffer.t) (s : string) : unit =
  let n = String.length s in
  let rec go start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else
      let c = String.unsafe_get s i in
      if c <> '"' && c <> '\\' && Char.code c >= 0x20 && Char.code c < 0x80
      then go start (i + 1)
      else if Char.code c >= 0x80 then begin
        let d = String.get_utf_8_uchar s i in
        let k = i + Uchar.utf_decode_length d in
        if Uchar.utf_decode_is_valid d then go start k
        else begin
          Buffer.add_substring buf s start (i - start);
          Buffer.add_utf_8_uchar buf Uchar.rep;
          go k k
        end
      end
      else begin
        Buffer.add_substring buf s start (i - start);
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
        go (i + 1) (i + 1)
      end
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

(** A float rendered so the parser reads back the same value; never
    [nan]/[inf] (clamped to 0), never bare [.] forms JSON rejects.  The
    12-digit form is used when it round-trips, else the 17-digit one. *)
let float_repr (f : float) : string =
  if not (Float.is_finite f) then "0"
  else
    let short = Printf.sprintf "%.12g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

(* The digits of [n >= 0], as [string_of_int] spells them, without
   going through its format interpreter. *)
let rec add_nat (buf : Buffer.t) (n : int) : unit =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_quoted (buf : Buffer.t) (s : string) : unit =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let rec print (buf : Buffer.t) : t -> unit = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i when i >= 0 -> add_nat buf i
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s -> add_quoted buf s
  | Raw s -> Buffer.add_string buf s
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        print buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_quoted buf k;
        Buffer.add_char buf ':';
        print buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string (v : t) : string =
  let buf = Buffer.create 4096 in
  print buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Parse_error of string

(** The deepest nesting of arrays and objects {!parse} accepts.  A serve
    reply nests 9 levels, [bench/baseline.json] 7. *)
let max_depth = 512

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  (* The character at the cursor; NUL past the end, which every caller
     either rejects or checks against [n]. *)
  let peek () = if !pos < n then String.unsafe_get s !pos else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect ch =
    if !pos < n && String.unsafe_get s !pos = ch then incr pos
    else fail (Printf.sprintf "expected %C" ch)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match peek () with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d;
      incr pos
    done;
    !v
  in
  (* The code point of a [\u] escape whose [u] is under the cursor; a
     high surrogate must be followed by an escaped low one. *)
  let code_point () =
    incr pos;
    let hi = hex4 () in
    if hi >= 0xDC00 && hi <= 0xDFFF then fail "lone low surrogate"
    else if hi < 0xD800 || hi > 0xDBFF then hi
    else if peek () = '\\' && !pos + 1 < n && s.[!pos + 1] = 'u' then begin
      pos := !pos + 2;
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "lone high surrogate"
      else 0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else fail "lone high surrogate"
  in
  (* RFC 8259 text is UTF-8: the character whose lead byte (at or above
     0x80) is under the cursor must be well formed — no stray
     continuation byte, truncated or overlong sequence, surrogate or
     code point past U+10FFFF.  The error quotes no byte of it. *)
  let utf_8 () =
    let d = String.get_utf_8_uchar s !pos in
    if not (Uchar.utf_decode_is_valid d) then fail "invalid UTF-8 in string";
    pos := !pos + Uchar.utf_decode_length d
  in
  (* The rest of a string whose first escape is under the cursor. *)
  let escaped_string start =
    let buf = Buffer.create (!pos - start + 16) in
    Buffer.add_substring buf s start (!pos - start);
    let rec go run =
      if !pos >= n then fail "unterminated string"
      else
        match String.unsafe_get s !pos with
        | '"' ->
          Buffer.add_substring buf s run (!pos - run);
          incr pos
        | '\\' ->
          Buffer.add_substring buf s run (!pos - run);
          incr pos;
          (match peek () with
          | '"' -> Buffer.add_char buf '"'; incr pos
          | '\\' -> Buffer.add_char buf '\\'; incr pos
          | '/' -> Buffer.add_char buf '/'; incr pos
          | 'b' -> Buffer.add_char buf '\b'; incr pos
          | 'f' -> Buffer.add_char buf '\012'; incr pos
          | 'n' -> Buffer.add_char buf '\n'; incr pos
          | 'r' -> Buffer.add_char buf '\r'; incr pos
          | 't' -> Buffer.add_char buf '\t'; incr pos
          | 'u' -> Buffer.add_utf_8_uchar buf (Uchar.of_int (code_point ()))
          | _ -> fail "bad escape");
          go !pos
        | c when Char.code c < 0x20 -> fail "raw control char in string"
        | '\128' .. '\255' ->
          utf_8 ();
          go run
        | _ ->
          incr pos;
          go run
    in
    go !pos;
    Buffer.contents buf
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let rec scan () =
      if !pos >= n then fail "unterminated string"
      else
        match String.unsafe_get s !pos with
        | '"' ->
          incr pos;
          String.sub s start (!pos - 1 - start)
        | '\\' -> escaped_string start
        | c when Char.code c < 0x20 -> fail "raw control char in string"
        | '\128' .. '\255' ->
          utf_8 ();
          scan ()
        | _ ->
          incr pos;
          scan ()
    in
    scan ()
  in
  (* The integer part is accumulated while it is scanned, so an
     integer of at most 18 digits (below [max_int]) is never sliced;
     any other number is sliced once. *)
  let parse_number () =
    let start = !pos in
    let neg = peek () = '-' in
    if neg then incr pos;
    let rec more_digits () =
      match peek () with
      | '0' .. '9' ->
        incr pos;
        more_digits ()
      | _ -> ()
    in
    let digits () =
      match peek () with
      | '0' .. '9' -> more_digits ()
      | _ -> fail "expected digit"
    in
    let int_start = !pos in
    let rec int_digits acc =
      match peek () with
      | '0' .. '9' as c ->
        incr pos;
        int_digits ((acc * 10) + Char.code c - Char.code '0')
      | _ -> acc
    in
    let mag =
      match peek () with
      | '0' -> (
        incr pos;
        match peek () with '0' .. '9' -> fail "leading zero" | _ -> 0)
      | '1' .. '9' -> int_digits 0
      | _ -> fail "expected digit"
    in
    match peek () with
    | '.' | 'e' | 'E' ->
      if peek () = '.' then begin
        incr pos;
        digits ()
      end;
      (match peek () with
      | 'e' | 'E' ->
        incr pos;
        (match peek () with '+' | '-' -> incr pos | _ -> ());
        digits ()
      | _ -> ());
      Float (float_of_string (String.sub s start (!pos - start)))
    | _ when !pos - int_start <= 18 ->
      if not neg then Int mag else if mag = 0 then Float (-0.) else Int (-mag)
    | _ -> (
      let lit = String.sub s start (!pos - start) in
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> Float (float_of_string lit))
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | '{' ->
      if depth >= max_depth then fail "nesting too deep";
      incr pos;
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            members ((k, v) :: acc)
          | '}' ->
            incr pos;
            List.rev ((k, v) :: acc)
          | _ -> fail "expected , or }"
        in
        Obj (members [])
      end
    | '[' ->
      if depth >= max_depth then fail "nesting too deep";
      incr pos;
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            elements (v :: acc)
          | ']' ->
            incr pos;
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        Arr (elements [])
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | _ -> fail "expected a value"
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors (used by the report reader)                               *)

let member (key : string) : t -> t option = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let get (key : string) (v : t) : t =
  match member key v with
  | Some x -> x
  | None -> raise (Parse_error ("missing field " ^ key))

let to_int_exn : t -> int = function
  | Int i -> i
  | Float f -> int_of_float f
  | _ -> raise (Parse_error "expected a number")

let to_float_exn : t -> float = function
  | Int i -> float_of_int i
  | Float f -> f
  | _ -> raise (Parse_error "expected a number")

let to_str_exn : t -> string = function
  | Str s -> s
  | _ -> raise (Parse_error "expected a string")

let to_list : t -> t list = function Arr xs -> xs | _ -> []
