(** VLAN identifiers (12-bit), with a distinguished "untagged" value. *)

type t

val untagged : t
(** The absence of a VLAN tag. *)

val of_id : int -> t
(** @raise Invalid_argument unless [0 <= id < 4096]. *)

val id : t -> int option
(** [None] for {!untagged}. *)

val is_tagged : t -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
