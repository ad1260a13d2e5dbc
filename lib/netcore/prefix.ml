type t = { network : Ipv4.t; length : int }

let mask_of_length len = if len = 0 then 0 else 0xffff_ffff lsl (32 - len) land 0xffff_ffff

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: bad length";
  { network = Ipv4.of_int (Ipv4.to_int addr land mask_of_length len); length = len }

let of_string s =
  match String.index_opt s '/' with
  | None -> make (Ipv4.of_string s) 32
  | Some i ->
      let addr = Ipv4.of_string (String.sub s 0 i) in
      let len_str = String.sub s (i + 1) (String.length s - i - 1) in
      let len =
        match int_of_string_opt len_str with
        | Some l -> l
        | None -> invalid_arg "Prefix.of_string: bad length"
      in
      make addr len

let of_string_opt s = try Some (of_string s) with Invalid_argument _ -> None
let to_string p = Printf.sprintf "%s/%d" (Ipv4.to_string p.network) p.length
let network p = p.network
let length p = p.length
let host a = make a 32
let all = { network = Ipv4.any; length = 0 }

let mem a p =
  Ipv4.to_int a land mask_of_length p.length = Ipv4.to_int p.network

let subset p q = p.length >= q.length && mem p.network q
let first p = p.network
let size p = 1 lsl (32 - p.length)
let last p = Ipv4.of_int (Ipv4.to_int p.network lor (size p - 1))

let hosts p =
  let stop = Ipv4.to_int (last p) in
  let rec from i () =
    if i > stop then Seq.Nil else Seq.Cons (Ipv4.of_int i, from (i + 1))
  in
  from (Ipv4.to_int p.network)

let pp ppf p = Format.pp_print_string ppf (to_string p)
