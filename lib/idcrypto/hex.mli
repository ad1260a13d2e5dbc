(** Lower-case hexadecimal encoding. *)

val encode : string -> string
(** Each input byte becomes two hex digits. *)

val encode_prefix : string -> int -> string
(** [encode_prefix s n] is [encode (String.sub s 0 n)], without the
    copy. *)

val write_prefix : string -> int -> Bytes.t -> int -> unit
(** [write_prefix s n b pos] writes [encode_prefix s n] into [b] at
    [pos]. *)

val decode : string -> (string, string) result
(** Inverse of {!encode}; accepts upper- or lower-case digits. *)

val spells_sub : string -> int -> int -> string -> int -> bool
(** [spells_sub hex pos len raw n]: the slice of [hex] from [pos], [len]
    bytes, is exactly [2 * n] digits, either case, whose {!decode} is
    the first [n] bytes of [raw]. Read where it sits, allocating
    nothing; [false] when the slice is out of bounds. A digit mismatch
    does not end the comparison early. *)
