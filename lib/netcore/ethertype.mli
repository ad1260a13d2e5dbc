(** Ethernet frame types. *)

type t = Ipv4 | Arp | Vlan_tagged | Other of int

val to_int : t -> int
val of_int : int -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
