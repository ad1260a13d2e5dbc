type t = int
(* -1 encodes "untagged"; otherwise a 12-bit VLAN id. *)

let untagged = -1

let of_id id =
  if id < 0 || id >= 4096 then invalid_arg "Vlan.of_id: out of range";
  id

let id v = if v < 0 then None else Some v
let is_tagged v = v >= 0
let to_string v = if v < 0 then "untagged" else string_of_int v
let equal = Int.equal
let pp ppf v = Format.pp_print_string ppf (to_string v)
