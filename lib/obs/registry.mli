(** The metrics registry: named counters, gauges, and fixed-bucket
    latency histograms, each with an optional label set.

    Design constraints (see doc/OBSERVABILITY.md):
    - {e O(1) hot-path record}: incrementing a counter or observing a
      histogram touches a handful of words, no allocation, no search.
    - {e Zero-cost when disabled}: every record operation is gated on a
      shared [enabled] flag (the {!Sim.Trace} idiom), so a disabled
      registry costs one load and one branch per call site. The bench
      suite's [obs] group pins this.
    - {e Deterministic export}: {!snapshot} orders series by name, then
      by label list, so exporter output is stable across runs and can
      be pinned by cram tests.

    Instruments are registered get-or-create: asking twice for the same
    (name, label set) returns the {e same} instrument, so independent
    subsystems can safely contribute to one series. Registering an
    existing name with a different instrument kind raises
    [Invalid_argument]. *)

type t

val create : ?enabled:bool -> unit -> t
(** Recording is on by default; [~enabled:false] starts the registry
    disabled (instruments can still be registered and read). *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** Flips recording for every instrument of this registry at once. *)

val reset : t -> unit
(** Zero every counter, gauge, and histogram (callback series are
    unaffected: they sample live state). *)

type labels = (string * string) list
(** Label pairs. Order is irrelevant: labels are sorted by name on
    registration, so [[("a","1");("b","2")]] and
    [[("b","2");("a","1")]] identify the same series. *)

module Counter : sig
  type t

  val inc : t -> unit
  val add : t -> int -> unit
  (** @raise Invalid_argument on negative increments (counters are
      monotone). *)

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Lands in the first bucket whose upper bound is [>=] the value
      (Prometheus [le] semantics); values above every bound land in the
      implicit [+Inf] bucket. *)

  val count : t -> int
  val sum : t -> float

  val buckets : t -> (float * int) list
  (** Cumulative counts per finite upper bound, in bound order ([+Inf]
      is {!count}). *)
end

val counter : t -> ?help:string -> ?labels:labels -> string -> Counter.t
val gauge : t -> ?help:string -> ?labels:labels -> string -> Gauge.t

val histogram :
  t -> ?help:string -> ?labels:labels -> ?buckets:float list -> string ->
  Histogram.t
(** [buckets] are finite upper bounds, strictly increasing (defaults to
    bounds from 10 us to 100 ms, sized for simulated flow-setup and
    query round-trip times). When the series already exists the
    [buckets] argument is ignored.
    @raise Invalid_argument if [buckets] is empty or not increasing. *)

val counter_fn : t -> ?help:string -> ?labels:labels -> string -> (unit -> int) -> unit
(** A callback counter: the closure is sampled at {!snapshot} time.
    Used to surface counters a subsystem already keeps (e.g. the
    fast-path cache counters) without double-counting on the hot
    path. Re-registering the same series replaces the callback. *)

val gauge_fn : t -> ?help:string -> ?labels:labels -> string -> (unit -> float) -> unit
(** A callback gauge sampled at {!snapshot} time (cache sizes, pending
    tables, breaker state). Re-registering replaces the callback. *)

(** {2 Snapshots}

    The exporters ({!Export}) work from an immutable snapshot. *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { buckets : (float * int) list; sum : float; count : int }
      (** [buckets] are cumulative counts per finite upper bound. *)

type series = {
  name : string;
  help : string;
  labels : labels;  (** Sorted by label name. *)
  value : value;
}

val snapshot : t -> series list
(** Sorted by name, then labels. Callback series are sampled here. *)

val estimate_quantile :
  buckets:(float * int) list -> count:int -> float -> float option
(** Prometheus-style quantile estimate from cumulative bucket counts
    ([buckets] as in {!Histogram_v}: cumulative per finite upper bound,
    in bound order; [count] the total including the implicit [+Inf]
    bucket). Linear interpolation within the first bucket whose
    cumulative count reaches [q * count], assuming observations spread
    uniformly inside a bucket; a rank past every finite bound returns
    the highest finite bound. [None] when [count = 0] or [q] is outside
    [0, 1]. *)
