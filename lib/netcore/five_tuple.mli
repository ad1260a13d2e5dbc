(** The ident++ definition of a flow: the classic 5-tuple (§2 of the
    paper): IP source and destination addresses, IP protocol, and
    transport source and destination ports. *)

type t = private {
  src : Ipv4.t;
  dst : Ipv4.t;
  proto : Proto.t;
  src_port : int;
  dst_port : int;
}

val make :
  src:Ipv4.t -> dst:Ipv4.t -> proto:Proto.t -> src_port:int -> dst_port:int -> t
(** Every flow an IP header carries, and only those: so every flow-keyed
    table can pack any flow ({!pack_src}).
    @raise Invalid_argument if a port is outside [0, 65535], or [proto]
    is an [Other n] whose [n] is outside [0, 255] or names ICMP, TCP or
    UDP (as {!Proto.of_int} never builds it). *)

val tcp : src:Ipv4.t -> dst:Ipv4.t -> src_port:int -> dst_port:int -> t
val udp : src:Ipv4.t -> dst:Ipv4.t -> src_port:int -> dst_port:int -> t

val pack_src : t -> int
(** The flow's first int: its source address above its source port, in
    bits 0-47. A caller may keep bits of its own from bit 48 up: {!unpack}
    ignores them. *)

val pack_dst : t -> int
(** The flow's second int: its destination address above its destination
    port, in bits 0-47, with the protocol number in bits 48-55. Two flows
    pack alike, both ints, exactly when they are {!equal}. *)

val unpack : int -> int -> t
(** The flow of [pack_src] and [pack_dst], ignoring the first int's bits
    from 48 up. *)

val reverse : t -> t
(** Swap source and destination (address and port). *)

val to_string : t -> string
(** e.g. ["tcp 10.0.0.1:5000 -> 10.0.0.2:80"]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

val hash_ints :
  src:int -> dst:int -> proto:int -> src_port:int -> dst_port:int -> int
(** [hash t] from the fields' ints ([Ipv4.to_int], [Proto.to_int]), for
    a caller that holds the fields but no tuple: nothing is built. *)
