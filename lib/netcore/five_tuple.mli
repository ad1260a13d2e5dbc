(** The ident++ definition of a flow: the classic 5-tuple (§2 of the
    paper): IP source and destination addresses, IP protocol, and
    transport source and destination ports. *)

type t = {
  src : Ipv4.t;
  dst : Ipv4.t;
  proto : Proto.t;
  src_port : int;
  dst_port : int;
}

val make :
  src:Ipv4.t -> dst:Ipv4.t -> proto:Proto.t -> src_port:int -> dst_port:int -> t
(** @raise Invalid_argument if a port is outside [0, 65535]. *)

val tcp : src:Ipv4.t -> dst:Ipv4.t -> src_port:int -> dst_port:int -> t
val udp : src:Ipv4.t -> dst:Ipv4.t -> src_port:int -> dst_port:int -> t

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
