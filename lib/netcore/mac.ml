type t = int

let mask48 = (1 lsl 48) - 1
let broadcast = mask48
let zero = 0
let of_int i = i land mask48

let of_bytes s off =
  if off < 0 || off + 6 > String.length s then
    invalid_arg "Mac.of_bytes: out of bounds";
  let b i = Char.code s.[off + i] in
  (b 0 lsl 40) lor (b 1 lsl 32) lor (b 2 lsl 24) lor (b 3 lsl 16)
  lor (b 4 lsl 8) lor b 5

let write_bytes m b off =
  for i = 0 to 5 do
    Bytes.set b (off + i) (Char.chr ((m lsr ((5 - i) * 8)) land 0xff))
  done

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Mac.of_string: bad hex digit"

let of_string s =
  if String.length s <> 17 then invalid_arg "Mac.of_string: bad length";
  let octet i =
    let base = i * 3 in
    if i > 0 && s.[base - 1] <> ':' then
      invalid_arg "Mac.of_string: expected ':'";
    (hex_digit s.[base] lsl 4) lor hex_digit s.[base + 1]
  in
  let rec build i acc =
    if i = 6 then acc else build (i + 1) ((acc lsl 8) lor octet i)
  in
  build 0 0

let of_string_opt s = try Some (of_string s) with Invalid_argument _ -> None

let to_string m =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x"
    ((m lsr 40) land 0xff) ((m lsr 32) land 0xff) ((m lsr 24) land 0xff)
    ((m lsr 16) land 0xff) ((m lsr 8) land 0xff) (m land 0xff)

let is_broadcast m = m = broadcast
let is_multicast m = (m lsr 40) land 1 = 1
let equal = Int.equal
let pp ppf m = Format.pp_print_string ppf (to_string m)
