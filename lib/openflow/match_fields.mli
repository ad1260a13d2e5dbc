(** The OpenFlow 10-tuple flow match (§3.1 of the paper): ingress port,
    MAC source/destination, Ethernet type, VLAN id, IP source/destination,
    IP protocol, transport source/destination ports. Every field may be
    wildcarded; IP addresses wildcard by CIDR prefix as in OpenFlow 1.0. *)

open Netcore

type t = {
  in_port : int option;
  dl_src : Mac.t option;
  dl_dst : Mac.t option;
  dl_type : Ethertype.t option;
  dl_vlan : Vlan.t option;
  nw_src : Prefix.t option;
  nw_dst : Prefix.t option;
  nw_proto : Proto.t option;
  tp_src : int option;
  tp_dst : int option;
}

val any : t
(** All fields wildcarded; matches every packet. *)

val of_five_tuple : Five_tuple.t -> t
(** Match on the ident++ 5-tuple only (layer-2 fields wildcarded). *)

val exact :
  nw_src:Prefix.t option ->
  nw_dst:Prefix.t option ->
  proto:Proto.t ->
  src_port:int ->
  dst_port:int ->
  t
(** {!of_five_tuple} of the flow from [src_port] to [dst_port] over
    [proto], its address fields given: [Some (Prefix.host a)] of each
    end, which a caller building many matches keeps one of per address
    and shares. *)

val matches_flow : t -> in_port:int -> Packet.t -> bool
(** Whether the packet, entering at [in_port], matches: each field
    against the packet's own, its network fields as
    {!Packet.five_tuple} reads them (ports 0 for ICMP and raw IP; a
    non-IP packet only when every network field is wild). Builds no
    5-tuple and allocates nothing. *)

val covers : t -> t -> bool
(** [covers general specific]: every packet matched by [specific] is
    matched by [general]. Conservative for prefix fields (exact CIDR
    subset test). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
