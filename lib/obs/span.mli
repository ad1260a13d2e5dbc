(** Flow-setup spans: one structured, timestamped record per table-miss
    flow, covering packet-in → per-host queries (child spans) →
    decision → flow install.

    A span has a name, start/end timestamps (float seconds — the
    controller feeds simulated time), key-value attributes, point-in-
    time events (cache hits, breaker short-circuits, retries,
    rejections), and child spans (one per ident++ query). Finished root
    spans are retained in a capacity-capped buffer and exportable as a
    JSON event stream (see doc/OBSERVABILITY.md for the schema).

    Like {!Registry}, the collector is enabled-gated: when disabled,
    {!start} hands back the shared {!null} span, every operation on
    which is a no-op — callers should gate any attribute {e formatting}
    on {!enabled}, the {!Sim.Trace} discipline. *)

type t
(** A span collector. *)

type span

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** Retains the most recent [capacity] (default 1024) finished root
    spans; enabled by default. *)

val enabled : t -> bool

(** {2 Head sampling}

    The collector keeps a fraction of root spans, decided at the head
    of the trace (so the decision can ride the wire with the trace
    context) but {e enforced} only when the root finishes — an
    unsampled root stays live and collects children and timings, and
    {!force_sample} can revive it on the way (the controller does so on
    deny, timeout, rejection and breaker trips, so error traces are
    never lost). Spans dropped this way are counted apart from capacity
    drops. *)

val set_sample_rate : t -> float -> unit
(** @raise Invalid_argument outside [\[0, 1\]]. *)

val should_sample : t -> id:string -> bool
(** The head coin for a new trace: deterministic from the trace id
    ({!Trace_context.unit_fraction} against the rate), so identical
    runs sample identically. *)

val null : span
(** The dead span: returned by {!start} when the collector is disabled;
    every operation on it is a no-op. *)

val is_live : span -> bool
(** [false] exactly for {!null}. *)

val start :
  t -> at:float -> ?parent:span -> ?sampled:bool ->
  ?attrs:(string * string) list -> string -> span
(** Opens a span. With [?parent] the new span is recorded as a child of
    (and retained with) the parent instead of entering the root buffer.
    A child of {!null} is {!null}. [?sampled] (default [true]) is the
    head-sampling decision for a root span: an unsampled root behaves
    normally while open but is discarded — and counted in
    {!sampled_out} — when finished, unless {!force_sample} ran. *)

val event : span -> at:float -> ?attrs:(string * string) list -> string -> unit
(** A point-in-time occurrence within the span. *)

val set_attr : span -> string -> string -> unit
(** Sets (or overwrites) an attribute. *)

val force_sample : span -> unit
(** Revise the head decision: keep this root span regardless of the
    sampling coin. The always-sample hook for error traces; a no-op on
    {!null} and on non-root spans (children live or die with their
    root). *)

val is_sampled : span -> bool
(** The current keep decision ([false] for {!null}). *)

val finish : t -> at:float -> span -> unit
(** Closes the span; root spans enter the retained buffer. Finishing a
    span twice, or finishing {!null}, is a no-op. *)

val duration : span -> float option
(** [end - start], once finished. *)

(** {2 Reading the collector} *)

val finished : t -> span list
(** Retained finished root spans, oldest first. *)

val count : t -> int
(** Total {e kept} root spans finished over the collector's lifetime,
    including any the capacity cap has since dropped (sampled-out spans
    are counted separately, in {!sampled_out}). *)

val sampled_out : t -> int
(** Root spans discarded by head sampling. *)

val capacity_dropped : t -> int
(** Kept root spans since lost to the capacity cap. *)

val clear : t -> unit

val name : span -> string
val attrs : span -> (string * string) list
val events : span -> (float * string * (string * string) list) list
val children : span -> span list

val to_json : span -> Json.t
(** One span as a JSON object: [{"name", "start", "end", "attrs",
    "events", "children"}]. *)

val export : t -> Json.t
(** The whole collector: [{"spans": [...], "dropped": n,
    "sampled_out": m}] — [dropped] counts spans lost to the capacity
    cap, [sampled_out] spans discarded by head sampling; the two causes
    are never conflated. *)
