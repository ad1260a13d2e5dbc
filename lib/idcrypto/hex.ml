let digits = "0123456789abcdef"

let write_prefix s n b pos =
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (pos + (2 * i)) digits.[c lsr 4];
    Bytes.set b (pos + (2 * i) + 1) digits.[c land 0xf]
  done

let encode_prefix s n =
  let b = Bytes.create (2 * n) in
  write_prefix s n b 0;
  Bytes.unsafe_to_string b

let encode s = encode_prefix s (String.length s)

(* A digit's value, or -1. *)
let value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let decode s =
  let n = String.length s in
  if n land 1 = 1 then Error "Hex.decode: odd length"
  else
    let b = Bytes.create (n / 2) in
    let rec go i =
      if i >= n then Ok (Bytes.unsafe_to_string b)
      else
        let hi = value s.[i] and lo = value s.[i + 1] in
        if hi < 0 then Error (Printf.sprintf "Hex.decode: bad digit %C" s.[i])
        else if lo < 0 then
          Error (Printf.sprintf "Hex.decode: bad digit %C" s.[i + 1])
        else begin
          Bytes.set b (i / 2) (Char.chr ((hi lsl 4) lor lo));
          go (i + 2)
        end
    in
    go 0

(* The bits where [hex]'s digit pairs from [pos] differ from [raw]'s
   bytes, from byte [i] on; -1 at a character that is no digit. *)
let rec diff_from hex pos raw n i acc =
  if i >= n then acc
  else
    let hi = value (String.unsafe_get hex (pos + (2 * i)))
    and lo = value (String.unsafe_get hex (pos + (2 * i) + 1)) in
    if hi < 0 || lo < 0 then -1
    else
      diff_from hex pos raw n (i + 1)
        (acc lor (((hi lsl 4) lor lo) lxor Char.code (String.unsafe_get raw i)))

let spells_sub hex pos len raw n =
  n <= String.length raw
  && pos >= 0
  && len = 2 * n
  && pos <= String.length hex - len
  && diff_from hex pos raw n 0 0 = 0
