(** IPv4 CIDR prefixes. *)

type t
(** A network prefix such as [192.168.0.0/24]. The stored network address
    is always canonical: host bits are zero. *)

val make : Ipv4.t -> int -> t
(** [make addr len] builds [addr/len], zeroing host bits.
    @raise Invalid_argument unless [0 <= len <= 32]. *)

val of_string : string -> t
(** Parses ["a.b.c.d/len"] or a bare address (treated as /32).
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
val to_string : t -> string
val network : t -> Ipv4.t
val length : t -> int

val host : Ipv4.t -> t
(** A /32 prefix containing exactly one address. *)

val all : t
(** [0.0.0.0/0], matching everything. *)

val mem : Ipv4.t -> t -> bool
(** [mem a p] is true when [a] falls inside [p]. *)

val subset : t -> t -> bool
(** [subset p q] is true when every address of [p] is in [q]. *)

val first : t -> Ipv4.t
(** Lowest address in the prefix (the network address). *)

val last : t -> Ipv4.t
(** Highest address in the prefix. *)

val size : t -> int
(** Number of addresses covered. *)

val hosts : t -> Ipv4.t Seq.t
(** All addresses in the prefix, ascending. *)

val pp : Format.formatter -> t -> unit
