(** Deterministic pseudo-random numbers (splitmix64). Every simulation
    and workload takes an explicit generator so runs are reproducible. *)

type t

val create : int -> t
(** Seeded generator. Equal seeds give equal streams. *)

val next64 : t -> int64
(** The next 64 random bits. *)

val write_hex64 : t -> Bytes.t -> int -> unit
(** [write_hex64 t b pos] writes the 16 lower-case hex digits of the
    next {!next64}, most significant first, at [pos]. Allocates
    nothing. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n). @raise Invalid_argument if [n <= 0]. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] is uniform in [lo, hi] inclusive. *)

val float : t -> float -> float
(** Uniform in [0, bound). *)

val bool : t -> bool
val pick : t -> 'a array -> 'a
(** @raise Invalid_argument on an empty array. *)

val pick_list : t -> 'a list -> 'a
val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed (for Poisson arrival gaps). *)
