(** Trace context for cross-host distributed tracing.

    A context names one trace (the whole flow-setup exchange) and one
    span within it (the sender's current unit of work), plus the head
    sampling decision, so every party — controller, daemons on both
    ends — can attribute its timings to the same tree.

    Ids are {e deterministic}: derived by hashing a caller-supplied seed
    (the flow's 5-tuple rendering) and a per-run sequence number, never
    from a clock or PRNG, so simulated runs reproduce byte-identical
    traces. The wire rendering is a single token valid as an ident++
    query key (hex and dashes only — no [':'], CR or LF; see
    doc/PROTOCOL.md). *)

type t = {
  trace_id : string;  (** 16 lowercase hex chars, shared by the whole tree. *)
  span_id : string;  (** 8 lowercase hex chars, the sender's span. *)
  sampled : bool;  (** Head sampling decision, made at the root. *)
}

val make : seed:string -> seq:int -> sampled:bool -> t
(** The root context of a new trace. [seed] should identify the traced
    work (the controller passes the flow 5-tuple string); [seq]
    disambiguates repeats of the same seed within a run. *)

val child : t -> int -> t
(** A derived context for the [n]-th child unit of work: same trace id
    and sampling decision, fresh deterministic span id. *)

val unit_fraction : string -> float
(** Hash an id into [\[0, 1)] — the deterministic coin for head
    sampling (compare against a sample rate). *)

val to_string : t -> string
(** ["<trace_id>-<span_id>-s"] (sampled) or [...-n] (not sampled). *)

val of_string : string -> t option
(** Inverse of {!to_string}; [None] for anything malformed (a
    version-tolerant decoder treats such tokens as ordinary data). *)

val is_text_sub : string -> int -> int -> bool
(** [is_text_sub s pos len]: whether the slice of [s] is a {!to_string}
    rendering that {!of_string} reads; reads it in place. *)

val of_sub : string -> int -> int -> t option
(** {!of_string} of the slice, copying only the two ids. *)
