type t = Ipv4 | Arp | Vlan_tagged | Other of int

let to_int = function
  | Ipv4 -> 0x0800
  | Arp -> 0x0806
  | Vlan_tagged -> 0x8100
  | Other n -> n

let of_int = function
  | 0x0800 -> Ipv4
  | 0x0806 -> Arp
  | 0x8100 -> Vlan_tagged
  | n ->
      if n < 0 || n > 0xffff then invalid_arg "Ethertype.of_int: out of range";
      Other n

let to_string = function
  | Ipv4 -> "ipv4"
  | Arp -> "arp"
  | Vlan_tagged -> "vlan"
  | Other n -> Printf.sprintf "0x%04x" n

let equal a b = to_int a = to_int b
let pp ppf t = Format.pp_print_string ppf (to_string t)
