(** The windowed health rule engine: declarative anomaly rules
    evaluated on each {!Window} close, firing typed health events.

    A rule names a metric, how to group its series (summing away
    incidental labels like [controller] and [shard], which keeps
    evaluation shard-count invariant), and a detection kind —
    threshold, burn-rate over N windows, quantile skew, or
    cross-group imbalance. Firing is {e edge-triggered}: a
    (rule, group) pair emits one event when its condition becomes
    true and re-arms only after a window in which it is false, so a
    sustained anomaly produces one event, not one per window.

    Each fired event is exported three ways: the [identxx_health_*]
    metrics, a force-sampled root span named ["health"] (error traces
    are never lost), and a ["health"] event in the {!Recorder} —
    after which the [on_fire] callback runs, so a dump taken there
    already contains the event that triggered it. *)

type kind =
  | Threshold of { over : float }
      (** Fires when a group's windowed value ({!Window.value_of}:
          counter rate per second, gauge level, histogram count)
          exceeds [over]. *)
  | Burn_rate of { over : float; windows : int }
      (** Fires when the value summed over the last [windows] closed
          windows (including the current one) exceeds [over]. *)
  | Quantile_skew of { q_hi : float; q_lo : float; min_ratio : float;
                       min_count : int }
      (** Histogram rules only: fires when the window's
          [q_hi]-quantile estimate exceeds [min_ratio] times the
          [q_lo] estimate, with at least [min_count] observations —
          the warm/cold latency gap an external prober could
          measure. *)
  | Imbalance of { min_ratio : float; min_value : float }
      (** Cross-group: fires (against the maximal group) when the
          largest group value exceeds [min_ratio] times the smallest
          and at least [min_value] absolutely. Needs >= 2 groups. *)

type rule = {
  r_name : string;  (** Event name, e.g. [packet_in_surge]. *)
  r_help : string;
  r_metric : string;  (** Registry metric the rule reads. *)
  r_group_by : string list;
      (** Labels that identify a group; all others are summed away. *)
  r_label_as : string option;
      (** Rename the single [r_group_by] label on the fired event
          (e.g. group by [src], report it as [host]). *)
  r_kind : kind;
}

val rule :
  name:string -> help:string -> metric:string -> ?group_by:string list ->
  ?label_as:string -> kind -> rule

val default_rules : rule list
(** The shipped rule set — see doc/OBSERVABILITY.md for the catalog:
    [packet_in_surge], [deny_latency_skew], [breaker_flap],
    [shard_queue_imbalance], [table_eviction_pressure],
    [daemon_query_surge]. *)

type event = {
  e_rule : string;
  e_at : float;  (** The close time of the firing window. *)
  e_window : int;  (** {!Window.window.w_seq} of the firing window. *)
  e_labels : (string * string) list;  (** The group, post-[r_label_as]. *)
  e_value : float;  (** The observed value. *)
  e_threshold : float;  (** The effective threshold it exceeded. *)
}

type t

val create :
  ?rules:rule list -> ?recorder:Recorder.t -> ?spans:Span.t ->
  registry:Registry.t -> Window.t -> t
(** An engine evaluating [rules] (default {!default_rules}) against
    windows closed on the given {!Window} engine. Registers
    [identxx_health_windows_total], [identxx_health_events_total{rule}]
    (one series per rule, pre-registered so zero is visible), and
    [identxx_health_active{rule}] on [registry]. *)

val set_on_fire : t -> (event -> unit) -> unit
(** Called once per fired event, after the event has been recorded in
    metrics, span, and recorder — the dump-on-trigger hook. *)

val step : t -> now:float -> event list
(** {!Window.tick}: close a window if its interval has elapsed, and if
    so evaluate every rule against it. Returns the events fired (often
    none). *)

val force_step : t -> now:float -> event list
(** {!Window.close}: close unconditionally and evaluate. The driver
    for deterministic sim schedules and every-N-queries daemons. *)

val events : t -> event list
(** All events fired over the engine's lifetime, oldest first. *)

val windows_closed : t -> int

val active : t -> (string * (string * string) list) list
(** Currently-firing (rule, group) pairs, sorted. *)

val event_to_json : event -> Json.t

val kind_to_string : kind -> string
(** Human-readable one-liner, e.g. [threshold(rate > 500)] — the
    [identxx_ctl health --rules] listing. *)
