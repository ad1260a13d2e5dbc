(** Ethernet MAC addresses (48-bit, stored in the low bits of an [int]). *)

type t
(** A 48-bit MAC address. Values are totally ordered and comparable with
    the polymorphic operators. *)

val broadcast : t
(** [ff:ff:ff:ff:ff:ff]. *)

val zero : t
(** [00:00:00:00:00:00]. *)

val of_int : int -> t
(** [of_int i] keeps the low 48 bits of [i]. *)

val of_bytes : string -> int -> t
(** [of_bytes s off] reads six big-endian bytes at offset [off].
    @raise Invalid_argument if fewer than six bytes remain. *)

val write_bytes : t -> Bytes.t -> int -> unit
(** [write_bytes m b off] writes the six bytes of [m] at [off]. *)

val of_string : string -> t
(** Parses ["aa:bb:cc:dd:ee:ff"] (case-insensitive).
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option

val to_string : t -> string
(** Lower-case colon-separated form. *)

val is_broadcast : t -> bool

val is_multicast : t -> bool
(** True when the group bit (LSB of the first octet) is set. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
