open Netcore

type t = { proto : Proto.t; src_port : int; dst_port : int; payload : string }

(* --- writing --- *)

let put b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_char b pos c =
  Bytes.unsafe_set b pos c;
  pos + 1

let put_key b pos key = put_char b (put_char b (put b pos key) ':') ' '

let rec pairs_length n = function
  | [] -> n
  | (p : Key_value.pair) :: rest ->
      pairs_length (n + String.length p.key + String.length p.value + 3) rest

let rec put_pairs b pos = function
  | [] -> pos
  | (p : Key_value.pair) :: rest ->
      put_pairs b (put_char b (put b (put_key b pos p.key) p.value) '\n') rest

let lines section =
  let b = Bytes.create (pairs_length 0 section) in
  ignore (put_pairs b 0 section : int);
  Bytes.unsafe_to_string b

type part = { text : string; tag : string; keys : int }

let key_bit_sub s i len = 1 lsl ((Char.code (String.unsafe_get s i) + (7 * len)) mod 63)
let key_bit k = key_bit_sub k 0 (String.length k)

let part ~tag pairs =
  let keys = List.fold_left (fun b (p : Key_value.pair) -> b lor key_bit p.key) 0 pairs in
  { text = lines pairs; tag; keys }

let rec parts_length n = function
  | [] -> n
  | [ p ] -> n + String.length p.text
  | p :: rest -> parts_length (n + String.length p.text + 1) rest

let rec put_parts b pos = function
  | [] -> pos
  | [ p ] -> put b pos p.text
  | p :: rest -> put_parts b (put_char b (put b pos p.text) '\n') rest

let write b ~proto ~src_port ~dst_port parts =
  put_parts b (Header.write b 0 proto src_port dst_port) parts

let length ~proto ~src_port ~dst_port parts =
  parts_length (Header.length proto src_port dst_port) parts

let view ~proto ~src_port ~dst_port b =
  { proto; src_port; dst_port; payload = Bytes.unsafe_to_string b }

let assemble ~proto ~src_port ~dst_port parts =
  let b = Bytes.create (length ~proto ~src_port ~dst_port parts) in
  ignore (write b ~proto ~src_port ~dst_port parts : int);
  view ~proto ~src_port ~dst_port b

(* --- reading --- *)

let body t = Header.length t.proto t.src_port t.dst_port

(* Word-at-a-time search. For an 8-byte word [x] read little-endian,
   [x lxor (c repeated)] has a zero byte exactly where [x] holds [c],
   and [zeros] sets the high bit of the lowest zero byte (and maybe of
   some above it, never below). A big-endian host reads the words the
   other way round, and searches a byte at a time. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"

let ones = 0x0101010101010101L
let highs = 0x8080808080808080L
let newlines = 0x0a0a0a0a0a0a0a0aL
let returns = 0x0d0d0d0d0d0d0d0dL

let[@inline] zeros x =
  Int64.logand (Int64.sub x ones) (Int64.logand (Int64.lognot x) highs)

(* The lowest byte whose high bit [t <> 0] sets, 0 to 7: its bit,
   isolated and moved to the byte's low end, times [byte_numbers] puts
   the byte's number in the top byte. *)
let byte_numbers = 0x0001020304050607L

let[@inline] lowest t =
  let bit = Int64.shift_right_logical (Int64.logand t (Int64.neg t)) 7 in
  Int64.to_int (Int64.shift_right_logical (Int64.mul bit byte_numbers) 56)

let rec byte_in s c i stop =
  if i >= stop || String.unsafe_get s i = c then i else byte_in s c (i + 1) stop

let rec index_in s c i stop =
  if Sys.big_endian || i + 8 > stop then byte_in s c i stop
  else
    let t =
      zeros (Int64.logxor (get64u s i) (Int64.mul (Int64.of_int (Char.code c)) ones))
    in
    if t = 0L then index_in s c (i + 8) stop else i + lowest t

let line_end s i = index_in s '\n' i (String.length s)
let colon s i = index_in s ':' i (String.length s)

let rec byte_break s i =
  if i >= String.length s then i
  else
    match String.unsafe_get s i with
    | '\n' | '\r' -> i
    | _ -> byte_break s (i + 1)

let rec line_break s i =
  if Sys.big_endian || i < 0 || i + 8 > String.length s then byte_break s i
  else
    let w = get64u s i in
    let t =
      Int64.logor (zeros (Int64.logxor w newlines)) (zeros (Int64.logxor w returns))
    in
    if t = 0L then line_break s (i + 8) else i + lowest t

(* The first line from [i >= 1] on that starts with [c] or is blank; the
   payload's length when there is none. *)
let rec line_from s c i =
  let p = line_end s (i - 1) + 1 in
  if p >= String.length s then String.length s
  else
    match String.unsafe_get s p with
    | '\n' -> p
    | x when x = c -> p
    | _ -> line_from s c (p + 1)

let rec section_stop s i =
  let next = line_end s i + 1 in
  if next >= String.length s || String.unsafe_get s next = '\n' then next
  else section_stop s next

let rec same_sub a i b j len =
  len = 0
  || String.unsafe_get a i = String.unsafe_get b j && same_sub a (i + 1) b (j + 1) (len - 1)

(* --- the walkers ---

   Each takes a top-level function and its state rather than a closure:
   without flambda, a closure that captures variables is allocated on
   every call. *)

let rec fold_pairs f st acc s i stop =
  if i >= stop then acc
  else if String.unsafe_get s i = '\n' then fold_pairs f st acc s (i + 1) stop
  else
    let k = colon s i in
    let e = line_end s (k + 2) in
    fold_pairs f st (f st acc s i k e) s (e + 1) stop

let rec fold_sections f st acc s i =
  if i >= String.length s then acc
  else
    let stop = section_stop s i in
    fold_sections f st (f st acc s i stop) s (stop + 1)

let rec fold_lines pre f st acc s n i stop =
  let p = line_from s (String.unsafe_get pre 0) i in
  if p >= stop then acc
  else if String.unsafe_get s p = '\n' then
    fold_lines pre f st (f st acc s n p p) s (n + 1) (p + 1) stop
  else if Key_value.is_at pre s p then
    let q = p + String.length pre in
    let e = line_end s q in
    fold_lines pre f st (f st acc s n q e) s n (e + 1) stop
  else fold_lines pre f st acc s n (p + 1) stop

let fold_lines pre f st acc s i stop =
  if i < 1 then invalid_arg "Payload.fold_lines" else fold_lines pre f st acc s 0 i stop

let last_value () found s _ q _ = if String.unsafe_get s q = ':' then q + 2 else found
let find s i stop key = fold_lines key last_value () (-1) s i stop

let is_trace s i stop =
  find s i stop Key_value.trace_id >= 0 && find s i stop Key_value.trace_spans >= 0
