open Netcore

(* --- writing --- *)

(* The digits of [n <= 0], counted and written from its negative side so
   that [min_int] needs no special case. *)
let rec neg_digits n = if n > -10 then 1 else 1 + neg_digits (n / 10)

let int_length n = if n < 0 then 1 + neg_digits n else neg_digits (-n)

(* Write [n <= 0]'s digits into [b], its last at [i]. *)
let rec write_neg b i n =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (n mod 10)));
  if n <= -10 then write_neg b (i - 1) (n / 10)

let write_int b pos n =
  let len = int_length n in
  if n < 0 then Bytes.unsafe_set b pos '-';
  write_neg b (pos + len - 1) (if n < 0 then n else -n);
  pos + len

(* The protocol's upper-case name, or its number. *)
let proto_text = function
  | Proto.Icmp -> "ICMP"
  | Proto.Tcp -> "TCP"
  | Proto.Udp -> "UDP"
  | Proto.Other n -> string_of_int n

let length proto src_port dst_port =
  String.length (proto_text proto) + int_length src_port + int_length dst_port + 3

let write b pos proto src_port dst_port =
  let name = proto_text proto in
  Bytes.blit_string name 0 b pos (String.length name);
  let pos = pos + String.length name in
  Bytes.unsafe_set b pos ' ';
  let pos = write_int b (pos + 1) src_port in
  Bytes.unsafe_set b pos ' ';
  let pos = write_int b (pos + 1) dst_port in
  Bytes.unsafe_set b pos '\n';
  pos + 1

(* Whether [s] holds [n >= 0]'s digits ending at [i], none before
   [first]. *)
let rec digits_at s first i n =
  i >= first
  && String.unsafe_get s i = Char.unsafe_chr (48 + (n mod 10))
  && (n < 10 || digits_at s first (i - 1) (n / 10))

let is_written s proto src_port dst_port =
  let name = proto_text proto in
  let p = String.length name in
  let sp = p + 1 + int_length src_port in
  let dp = sp + 1 + int_length dst_port in
  src_port >= 0 && dst_port >= 0
  && dp < String.length s
  && Key_value.is_at name s 0
  && String.unsafe_get s p = ' '
  && digits_at s (p + 1) (sp - 1) src_port
  && String.unsafe_get s sp = ' '
  && digits_at s (sp + 1) (dp - 1) dst_port
  && String.unsafe_get s dp = '\n'

(* --- reading --- *)

let bad_line = -1
let bad_fields = -2

(* What [String.trim] strips. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* The first [c] in [s] from [i] up to [stop], or [stop]. *)
let rec index_to s c i stop =
  if i >= stop || String.unsafe_get s i = c then i else index_to s c (i + 1) stop

let rec all_digits s i stop =
  i >= stop
  || (match String.unsafe_get s i with '0' .. '9' -> true | _ -> false)
     && all_digits s (i + 1) stop

let rec decimal s i stop acc =
  if i >= stop then acc
  else decimal s (i + 1) stop ((acc * 10) + Char.code (String.unsafe_get s i) - 48)

(* The field [i, stop) as [int_of_string_opt] reads it, or -1. Plain
   decimal of up to six digits is read in place; anything else (a sign,
   a radix prefix, '_', an empty field) goes through a copy. *)
let port s i stop =
  if stop > i && stop - i <= 6 && all_digits s i stop then decimal s i stop 0
  else
    match int_of_string_opt (String.sub s i (stop - i)) with
    | Some n when n >= 0 -> n
    | Some _ | None -> -1

(* Whether [s] from [i + k] matches lower-case [name] from [k] on,
   ignoring ASCII case. *)
let rec same_name name s i k =
  k >= String.length name
  || Char.lowercase_ascii (String.unsafe_get s (i + k)) = String.unsafe_get name k
     && same_name name s i (k + 1)

let is_name name s i stop = stop - i = String.length name && same_name name s i 0

(* The field [i, stop)'s protocol number as [Proto.of_string_opt] reads
   it, or -1. *)
let proto_code s i stop =
  if is_name "tcp" s i stop then 6
  else if is_name "udp" s i stop then 17
  else if is_name "icmp" s i stop then 1
  else
    match Proto.of_string_opt (String.sub s i (stop - i)) with
    | Some p -> Proto.to_int p
    | None -> -1

(* The first non-space from [i], before [stop]; the last before [j],
   after [a]. *)
let rec skip_space s i stop =
  if i < stop && is_space (String.unsafe_get s i) then skip_space s (i + 1) stop
  else i

let rec trim_space s a j =
  if j > a && is_space (String.unsafe_get s (j - 1)) then trim_space s a (j - 1)
  else j

let parse s pos stop =
  let a = skip_space s pos stop in
  let b = trim_space s a stop in
  let s1 = index_to s ' ' a b in
  let s2 = if s1 < b then index_to s ' ' (s1 + 1) b else b in
  if s2 >= b || index_to s ' ' (s2 + 1) b < b then bad_line
  else
    let proto = proto_code s a s1
    and sp = port s (s1 + 1) s2
    and dp = port s (s2 + 1) b in
    if proto < 0 || sp < 0 || sp > 0xffff || dp < 0 || dp > 0xffff then bad_fields
    else (proto lsl 32) lor (sp lsl 16) lor dp

let proto h = Proto.of_int (h lsr 32)
let src_port h = (h lsr 16) land 0xffff
let dst_port h = h land 0xffff

let error who h =
  if h = bad_line then who ^ ": malformed header line"
  else who ^ ": malformed header fields"
