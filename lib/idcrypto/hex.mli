(** Lower-case hexadecimal encoding. *)

val encode : string -> string
(** Each input byte becomes two hex digits. *)

val encode_prefix : string -> int -> string
(** [encode_prefix s n] is [encode (String.sub s 0 n)], without the
    copy. *)

val decode : string -> (string, string) result
(** Inverse of {!encode}; accepts upper- or lower-case digits. *)

val spells : string -> string -> int -> bool
(** [spells hex raw n]: [hex] is exactly [2 * n] digits, either case,
    whose {!decode} is the first [n] bytes of [raw]. Allocates nothing;
    a digit mismatch does not end the comparison early. *)
