(** Simulated time, in integer nanoseconds. *)

type t = private int

val zero : t
val ns : int -> t
val us : int -> t
val ms : int -> t
val s : int -> t
val of_float_s : float -> t
val to_ns : t -> int
val to_float_s : t -> float
val to_float_us : t -> float
val to_float_ms : t -> float
val add : t -> t -> t
val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val min : t -> t -> t
val max : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( < ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Human-friendly: picks ns/us/ms/s units. *)
