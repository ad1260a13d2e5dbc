(** Windowed time-series over a {!Registry}: a ring buffer of closed
    windows, each holding the per-series change during the window —
    counter deltas (and their per-second rates), gauge values sampled
    at the close, and histogram bucket deltas.

    The window engine adds the {e time dimension} the point-in-time
    snapshot lacks: "did the packet-in rate from host A spike in the
    last window?" is a lookup here, not a question an exporter can
    answer. Closing a window takes a full {!Registry.snapshot}, so
    callback series ([counter_fn]/[gauge_fn]) are sampled {e at the
    close}, on the caller's clock — the injectable-clock discipline
    that keeps netsim runs deterministic while identxxd closes on wall
    time.

    The engine never schedules anything itself: callers drive it with
    {!tick} (close when the interval has elapsed) or {!close} (close
    unconditionally — the periodic-sim-event and every-N-queries
    drivers). *)

type t

val create : ?depth:int -> interval:float -> now:float -> Registry.t -> t
(** A window engine over [registry], with the first window opening at
    [now]. [interval] is the target window length in seconds; [depth]
    (default 64) is how many closed windows the ring retains.
    @raise Invalid_argument if [interval <= 0] or [depth < 1]. *)

(** Per-series change over one window. *)
type wvalue =
  | W_counter of { delta : int; rate : float }
      (** Monotone increase during the window and its per-second rate.
          A series first seen this window counts from zero. *)
  | W_gauge of float  (** The value sampled at the window close. *)
  | W_histogram of {
      buckets : (float * int) list;
          (** Cumulative observation counts {e within the window}, per
              finite upper bound (the delta of two cumulative
              snapshots is itself cumulative). *)
      sum : float;
      count : int;
    }

type wseries = {
  ws_name : string;
  ws_labels : Registry.labels;
  ws_value : wvalue;
}

type window = {
  w_seq : int;  (** 1-based window sequence number. *)
  w_from : float;
  w_until : float;
  w_series : wseries list;  (** Snapshot order: name, then labels. *)
}

val tick : t -> now:float -> window option
(** Close the current window iff at least [interval] seconds have
    elapsed since it opened. At most one window closes per tick (a
    wall-clock driver that stalls produces one long window, not a
    burst of empty ones). *)

val close : t -> now:float -> window
(** Close the current window unconditionally, spanning from its open
    time to [now]. *)

val windows : t -> window list
(** Retained closed windows, newest first (at most [depth]). *)

val closed : t -> int
(** Total windows closed over the engine's lifetime. *)

val value_of : wvalue -> float
(** The scalar a threshold naturally compares: a counter's rate, a
    gauge's value, a histogram's count rate is not well defined — for
    histograms this is the windowed observation [count]. *)

val grouped :
  window -> metric:string -> by:string list -> (Registry.labels * wvalue) list
(** All of [metric]'s series in the window, grouped by the values of
    the [by] labels (series missing one of them are skipped) with
    everything else merged away — e.g. grouping
    [identxx_controller_packet_ins_total] by [["src"]] sums shards
    into one per-source-host series, which is what makes health
    evaluation shard-count invariant. [by = []] merges the whole
    metric into one group with empty labels. Groups come back sorted
    by label list. *)

val find : window -> metric:string -> labels:Registry.labels -> wvalue option
(** The single series with exactly these labels, if present. *)
