(** Structured packets with real wire-format encoders and decoders.

    Encoding produces byte-exact Ethernet/IPv4/TCP/UDP frames, including
    IPv4 header checksums and TCP/UDP pseudo-header checksums, so the
    simulator's packets could in principle be written to a pcap. Decoding
    verifies structure (and checksums, unless told not to). *)

type tcp_flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

val flags_psh_ack : tcp_flags

type tcp = {
  tcp_src : int;
  tcp_dst : int;
  seq : int32;
  ack_no : int32;
  flags : tcp_flags;
  window : int;
  tcp_payload : string;
}

type udp = { udp_src : int; udp_dst : int; udp_payload : string }
type icmp = { icmp_type : int; icmp_code : int; icmp_payload : string }

type ip_payload =
  | Tcp of tcp
  | Udp of udp
  | Icmp of icmp
  | Raw_ip of Proto.t * string

type ipv4 = { ip_src : Ipv4.t; ip_dst : Ipv4.t; ttl : int; payload : ip_payload }

type eth_payload = Ip of ipv4 | Raw_eth of Ethertype.t * string

type t = {
  eth_src : Mac.t;
  eth_dst : Mac.t;
  vlan : Vlan.t;
  eth_payload : eth_payload;
}

val tcp_syn :
  ?eth_src:Mac.t ->
  ?eth_dst:Mac.t ->
  ?vlan:Vlan.t ->
  src:Ipv4.t ->
  dst:Ipv4.t ->
  src_port:int ->
  dst_port:int ->
  unit ->
  t
(** A minimal TCP SYN — the packet that typically triggers flow setup. *)

val udp_datagram :
  ?eth_src:Mac.t ->
  ?eth_dst:Mac.t ->
  ?vlan:Vlan.t ->
  src:Ipv4.t ->
  dst:Ipv4.t ->
  src_port:int ->
  dst_port:int ->
  payload:string ->
  unit ->
  t

val of_five_tuple : ?eth_src:Mac.t -> ?payload:string -> Five_tuple.t -> t
(** A packet whose headers realize the given 5-tuple (TCP flows get a SYN;
    UDP flows a datagram; other protocols a raw IP payload), from
    [eth_src] (default {!Mac.zero}). *)

val five_tuple : t -> Five_tuple.t option
(** The ident++ 5-tuple of an IPv4 TCP/UDP packet; for other IP packets
    the ports are reported as 0; [None] for non-IP frames. *)

val ip_proto : ip_payload -> Proto.t
(** The payload's protocol, as {!five_tuple} reads it; allocates
    nothing. *)

val size : t -> int
(** Length in bytes of [encode t], computed from the header and payload
    lengths without encoding. O(1); allocates nothing. *)

val encode : t -> string
(** Serialize to wire bytes, computing all checksums. *)

val decode : ?check:bool -> string -> (t, string) result
(** Parse wire bytes. When [check] (default [true]), IPv4 and transport
    checksums are verified and a mismatch is an [Error]. *)

val pp : Format.formatter -> t -> unit
