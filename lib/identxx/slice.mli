(** Where a value sits in a wire payload: the bytes [[start, stop)],
    packed into one immediate int, so a reader notes positions without
    allocating. Queries, responses and the signature and audit readers
    all use it. *)

type t = private int

val none : t
(** No slice: a value that is absent. Less than every slice. *)

val v : int -> int -> t
(** [v start stop], both in [[0, 2{^30})]. *)

val start : t -> int
val stop : t -> int

val length : t -> int
(** [stop - start]. *)

val sub : string -> t -> string
(** The bytes of the payload the slice is in, copied out. *)
