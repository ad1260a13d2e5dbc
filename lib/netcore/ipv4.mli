(** IPv4 addresses (32-bit, stored in an [int]). *)

type t
(** An IPv4 address. The representation is the host-order 32-bit value. *)

val any : t
(** [0.0.0.0]. *)

val broadcast : t
(** [255.255.255.255]. *)

val of_int : int -> t
(** Keeps the low 32 bits. *)

val to_int : t -> int

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is [a.b.c.d]. Each octet is masked to 8 bits. *)

val to_octets : t -> int * int * int * int

val of_string : string -> t
(** Parses dotted-quad notation. @raise Invalid_argument on bad input. *)

val of_string_opt : string -> t option
val to_string : t -> string

val text_length : t -> int
(** [String.length (to_string a)]. *)

val write_text : Bytes.t -> int -> t -> int
(** [write_text b pos a] writes [to_string a] into [b] at [pos] and
    returns the position after it. @raise Invalid_argument when it does
    not fit. *)

val is_text_sub : t -> string -> int -> int -> bool
(** [is_text_sub a s pos stop]: whether the slice of [s] from [pos] to
    [stop] is exactly [to_string a], read where it sits, without
    building [to_string a]; [false] when the slice is out of bounds. *)

val of_bytes : string -> int -> t
(** Reads four big-endian bytes. @raise Invalid_argument out of bounds. *)

val write_bytes : t -> Bytes.t -> int -> unit

val succ : t -> t
(** Next address, wrapping at [255.255.255.255]. *)

val is_multicast : t -> bool
(** True for 224.0.0.0/4. *)

val is_private : t -> bool
(** True for RFC 1918 space (10/8, 172.16/12, 192.168/16). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
