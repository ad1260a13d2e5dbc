(** Online statistics for simulation measurements. *)

type t
(** A sample accumulator: keeps count/mean/variance online and the full
    sample set for exact percentiles. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val variance : t -> float
val min_value : t -> float
val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t 99.0] is the exact p99 (nearest-rank on the sorted
    sample). The sorted sample is cached between calls: a query sorts
    only the values added since the previous query and merges them in,
    so interleaving {!add} and [percentile] (live dashboards, per-batch
    reporting) stays near-linear instead of re-sorting the full sample
    each time. @raise Invalid_argument when empty or p outside
    [0,100]. *)

val median : t -> float
