type t = int

let mask32 = 0xffff_ffff
let any = 0
let broadcast = mask32
let of_int i = i land mask32
let to_int a = a

let of_octets a b c d =
  ((a land 0xff) lsl 24) lor ((b land 0xff) lsl 16) lor ((c land 0xff) lsl 8)
  lor (d land 0xff)

let to_octets a =
  ((a lsr 24) land 0xff, (a lsr 16) land 0xff, (a lsr 8) land 0xff, a land 0xff)

let of_string s =
  let len = String.length s in
  let rec octet i acc ndigits =
    if i >= len then (acc, i, ndigits)
    else
      match s.[i] with
      | '0' .. '9' when ndigits < 3 ->
          octet (i + 1) ((acc * 10) + (Char.code s.[i] - Char.code '0'))
            (ndigits + 1)
      | _ -> (acc, i, ndigits)
  in
  let rec go i part acc =
    let v, j, nd = octet i 0 0 in
    if nd = 0 || v > 255 then invalid_arg "Ipv4.of_string: bad octet";
    let acc = (acc lsl 8) lor v in
    if part = 3 then
      if j = len then acc else invalid_arg "Ipv4.of_string: trailing junk"
    else if j < len && s.[j] = '.' then go (j + 1) (part + 1) acc
    else invalid_arg "Ipv4.of_string: expected '.'"
  in
  go 0 0 0

let of_string_opt s = try Some (of_string s) with Invalid_argument _ -> None

let octet a i = (a lsr (24 - (8 * i))) land 0xff
let width o = if o >= 100 then 3 else if o >= 10 then 2 else 1

let text_length a =
  width (octet a 0) + width (octet a 1) + width (octet a 2) + width (octet a 3) + 3

(* Octet [i] of [a] and the ones after it, each but the first after a
   '.', written into [b] from [pos]; the position after the last. *)
let rec write_octets b pos a i =
  let o = octet a i in
  let w = width o in
  if w = 3 then Bytes.unsafe_set b pos (Char.unsafe_chr (48 + (o / 100)));
  if w >= 2 then
    Bytes.unsafe_set b (pos + w - 2) (Char.unsafe_chr (48 + (o / 10 mod 10)));
  Bytes.unsafe_set b (pos + w - 1) (Char.unsafe_chr (48 + (o mod 10)));
  if i = 3 then pos + w
  else begin
    Bytes.unsafe_set b (pos + w) '.';
    write_octets b (pos + w + 1) a (i + 1)
  end

let write_text b pos a =
  if pos < 0 || pos + text_length a > Bytes.length b then
    invalid_arg "Ipv4.write_text: out of bounds";
  write_octets b pos a 0

(* Dotted quad, written straight into a buffer of the exact length. *)
let to_string a =
  let b = Bytes.create (text_length a) in
  ignore (write_octets b 0 a 0 : int);
  Bytes.unsafe_to_string b

(* Whether [s] holds [d]'s last decimal digit at [i]. *)
let digit_at s i d = String.unsafe_get s i = Char.unsafe_chr (48 + (d mod 10))

(* The position after octet [o] of [a] written at [i] of [s] as
   [to_string] writes it, then a '.' unless it is the last, all before
   [stop]; -1 when [s] differs there. *)
let rec octets_at a s i stop o =
  let v = octet a o in
  let w = width v in
  let next = i + w in
  if
    next > stop
    || (w = 3 && not (digit_at s i (v / 100)))
    || (w >= 2 && not (digit_at s (next - 2) (v / 10)))
    || not (digit_at s (next - 1) v)
  then -1
  else if o = 3 then next
  else if next < stop && String.unsafe_get s next = '.' then
    octets_at a s (next + 1) stop (o + 1)
  else -1

let is_text_sub a s pos stop =
  pos >= 0 && stop <= String.length s && octets_at a s pos stop 0 = stop

let of_bytes s off =
  if off < 0 || off + 4 > String.length s then
    invalid_arg "Ipv4.of_bytes: out of bounds";
  let b i = Char.code s.[off + i] in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let write_bytes a b off =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((a lsr ((3 - i) * 8)) land 0xff))
  done

let succ a = (a + 1) land mask32
let is_multicast a = a lsr 28 = 0xe

let is_private a =
  a lsr 24 = 10
  || (a lsr 20 = (172 lsl 4) lor 1)
  || a lsr 16 = (192 lsl 8) lor 168

let compare = Int.compare
let equal = Int.equal
let hash a = Hashtbl.hash a
