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

    The parser is one function per grammar rule over one mutable
    cursor, so a parse allocates the tree it returns and nothing per
    character.  A string without escapes is sliced out of the input
    once, and a string repeated within one document (a key, a task
    name) is usually one shared string; only a string with escapes is
    assembled in a buffer.  An integer of at most 18 digits is
    accumulated as it is scanned, any other number is sliced once, and
    members and elements are consed in order.

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

(* The parser's one piece of state: the input, a cursor and the string
   last sliced per hash slot.  Each grammar rule reads at [pos] and
   leaves it past what it read; only the tree outlives a parse. *)
type cursor = { s : string; n : int; mutable pos : int; seen : string array }

let fail (p : cursor) (msg : string) =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg p.pos))

(* The character at [i] (at the cursor for [peek]); NUL past the end,
   which every caller either rejects or checks against [n]. *)
let at (p : cursor) (i : int) : char =
  if i < p.n then String.unsafe_get p.s i else '\000'

let peek (p : cursor) : char = at p p.pos
let advance (p : cursor) : unit = p.pos <- p.pos + 1

let rec skip_more_ws (p : cursor) : unit =
  match peek p with
  | ' ' | '\t' | '\n' | '\r' -> advance p; skip_more_ws p
  | _ -> ()

(* Inlined, since most values and separators follow no whitespace. *)
let[@inline] skip_ws (p : cursor) : unit = if peek p <= ' ' then skip_more_ws p

let expect (p : cursor) (ch : char) : unit =
  if p.pos < p.n && String.unsafe_get p.s p.pos = ch then advance p
  else fail p (Printf.sprintf "expected %C" ch)

let literal (p : cursor) (word : string) (v : t) : t =
  for i = 0 to String.length word - 1 do
    expect p (String.unsafe_get word i)
  done;
  v

let rec hex4 (p : cursor) (v : int) (k : int) : int =
  if k = 0 then v
  else
    let d =
      match peek p with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail p "bad \\u escape"
    in
    advance p;
    hex4 p ((v * 16) + d) (k - 1)

(* The code point of a [\u] escape whose [u] is under the cursor; a
   high surrogate must be followed by an escaped low one. *)
let code_point (p : cursor) : int =
  advance p;
  let hi = hex4 p 0 4 in
  if hi >= 0xDC00 && hi <= 0xDFFF then fail p "lone low surrogate"
  else if hi < 0xD800 || hi > 0xDBFF then hi
  else if peek p = '\\' && p.pos + 1 < p.n && p.s.[p.pos + 1] = 'u' then begin
    p.pos <- p.pos + 2;
    let lo = hex4 p 0 4 in
    if lo < 0xDC00 || lo > 0xDFFF then fail p "lone high surrogate"
    else 0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
  end
  else fail p "lone high surrogate"

(* Past a string byte below 0x20 (an error) or at or above 0x80, which
   must lead well-formed UTF-8 as RFC 8259 asks: no stray continuation
   byte, truncated or overlong sequence, surrogate or code point past
   U+10FFFF.  The error quotes no byte of it. *)
let control_or_utf_8 (p : cursor) (c : char) : unit =
  if Char.code c < 0x20 then fail p "raw control char in string";
  let d = String.get_utf_8_uchar p.s p.pos in
  if not (Uchar.utf_decode_is_valid d) then fail p "invalid UTF-8 in string";
  p.pos <- p.pos + Uchar.utf_decode_length d

(* The rest of a string from its first escape on, assembled in [buf];
   [run] is the first byte not yet copied. *)
let rec escaped (p : cursor) (buf : Buffer.t) (run : int) : string =
  if p.pos >= p.n then fail p "unterminated string";
  match String.unsafe_get p.s p.pos with
  | '"' ->
    Buffer.add_substring buf p.s run (p.pos - run);
    advance p;
    Buffer.contents buf
  | '\\' ->
    Buffer.add_substring buf p.s run (p.pos - run);
    advance p;
    (match peek p with
    | 'u' -> Buffer.add_utf_8_uchar buf (Uchar.of_int (code_point p))
    | c ->
      Buffer.add_char buf
        (match c with
        | '"' | '\\' | '/' -> c
        | 'b' -> '\b'
        | 'f' -> '\012'
        | 'n' -> '\n'
        | 'r' -> '\r'
        | 't' -> '\t'
        | _ -> fail p "bad escape");
      advance p);
    escaped p buf p.pos
  | ' ' .. '\127' -> advance p; escaped p buf run
  | c -> control_or_utf_8 p c; escaped p buf run

let rec same_bytes (s : string) (start : int) (k : string) (i : int) : bool =
  i = String.length k
  || String.unsafe_get s (start + i) = String.unsafe_get k i
     && same_bytes s start k (i + 1)

(* The [len] bytes at [start], hashed to [h]: the string last sliced in
   [h]'s slot when it holds these bytes, so a key or name repeated in
   one document is one string, else a fresh slice that takes the slot. *)
let slice (p : cursor) (start : int) (len : int) (h : int) : string =
  let slot = ((h * 0x9E3779B1) lsr 16) land (Array.length p.seen - 1) in
  let k = Array.unsafe_get p.seen slot in
  if String.length k = len && same_bytes p.s start k 0 then k
  else begin
    let k = String.sub p.s start len in
    Array.unsafe_set p.seen slot k;
    k
  end

(* The body of a string from [start] to its closing quote, scanned at
   [i] and hashed into [h]: sliced out of the input once, or assembled
   in a buffer from its first escape on. *)
let rec string_body (p : cursor) (start : int) (i : int) (h : int) : string =
  if i >= p.n then (p.pos <- i; fail p "unterminated string");
  match String.unsafe_get p.s i with
  | '"' ->
    p.pos <- i + 1;
    slice p start (i - start) h
  | '\\' ->
    p.pos <- i;
    let buf = Buffer.create (i - start + 16) in
    Buffer.add_substring buf p.s start (i - start);
    escaped p buf i
  | ' ' .. '\127' as c -> string_body p start (i + 1) ((h * 31) + Char.code c)
  | c -> p.pos <- i; control_or_utf_8 p c; string_body p start p.pos h

let string (p : cursor) : string =
  expect p '"';
  string_body p p.pos p.pos 0

(* The digits from [i] on, accumulated into [acc]; the cursor ends past. *)
let rec int_digits (p : cursor) (i : int) (acc : int) : int =
  match at p i with
  | '0' .. '9' as c ->
    int_digits p (i + 1) ((acc * 10) + Char.code c - Char.code '0')
  | _ -> p.pos <- i; acc

(* One or more digits of a fraction or exponent; their value is not
   needed, so the accumulator may wrap. *)
let digits (p : cursor) : unit =
  match peek p with
  | '0' .. '9' -> ignore (int_digits p p.pos 0)
  | _ -> fail p "expected digit"

(* The integer part is accumulated while it is scanned, so an integer
   of at most 18 digits (below [max_int]) is never sliced; any other
   number is sliced once. *)
let number (p : cursor) : t =
  let start = p.pos in
  let neg = peek p = '-' in
  if neg then advance p;
  let int_start = p.pos in
  let mag =
    match peek p with
    | '0' -> (
      advance p;
      match peek p with '0' .. '9' -> fail p "leading zero" | _ -> 0)
    | '1' .. '9' -> int_digits p p.pos 0
    | _ -> fail p "expected digit"
  in
  match peek p with
  | '.' | 'e' | 'E' ->
    if peek p = '.' then (advance p; digits p);
    if peek p = 'e' || peek p = 'E' then begin
      advance p;
      if peek p = '+' || peek p = '-' then advance p;
      digits p
    end;
    Float (float_of_string (String.sub p.s start (p.pos - start)))
  | _ when p.pos - int_start <= 18 ->
    if not neg then Int mag else if mag = 0 then Float (-0.) else Int (-mag)
  | _ -> (
    let lit = String.sub p.s start (p.pos - start) in
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> Float (float_of_string lit))

(* The items of the array or object opened under the cursor at nesting
   [depth]: none before [close], else [items] one level deeper. *)
let container (p : cursor) (depth : int) (close : char)
    (items : cursor -> int -> 'a list) : 'a list =
  if depth >= max_depth then fail p "nesting too deep";
  advance p;
  skip_ws p;
  if peek p = close then (advance p; []) else items p (depth + 1)

(* [members] and [elements] cons each item in front of the rest still
   to be read ([@tail_mod_cons]), so a list is built in order in
   constant stack. *)
let rec value (p : cursor) (depth : int) : t =
  skip_ws p;
  match peek p with
  | '{' -> Obj (container p depth '}' members)
  | '[' -> Arr (container p depth ']' elements)
  | '"' -> Str (string p)
  | 't' -> literal p "true" (Bool true)
  | 'f' -> literal p "false" (Bool false)
  | 'n' -> literal p "null" Null
  | '-' | '0' .. '9' -> number p
  | _ -> fail p "expected a value"

and[@tail_mod_cons] members (p : cursor) (depth : int) : (string * t) list =
  skip_ws p;
  let k = string p in
  skip_ws p;
  expect p ':';
  let v = value p depth in
  skip_ws p;
  match peek p with
  | ',' -> advance p; (k, v) :: members p depth
  | '}' -> advance p; [ (k, v) ]
  | _ -> (fail [@tailcall false]) p "expected , or }"

and[@tail_mod_cons] elements (p : cursor) (depth : int) : t list =
  let v = value p depth in
  skip_ws p;
  match peek p with
  | ',' -> advance p; v :: elements p depth
  | ']' -> advance p; [ v ]
  | _ -> (fail [@tailcall false]) p "expected , or ]"

let parse (s : string) : t =
  let p = { s; n = String.length s; pos = 0; seen = Array.make 256 "" } in
  let v = value p 0 in
  skip_ws p;
  if p.pos <> p.n then fail p "trailing garbage";
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

(** An integer field: the toolchain writes every one as an [Int], so a
    float in its place is an error, not a value to truncate. *)
let to_int_exn : t -> int = function
  | Int i -> i
  | _ -> raise (Parse_error "expected an integer")

let to_float_exn : t -> float = function
  | Int i -> float_of_int i
  | Float f -> f
  | _ -> raise (Parse_error "expected a number")

let to_str_exn : t -> string = function
  | Str s -> s
  | _ -> raise (Parse_error "expected a string")

let to_list : t -> t list = function Arr xs -> xs | _ -> []
