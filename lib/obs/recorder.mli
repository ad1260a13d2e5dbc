(** The flight recorder: an always-on bounded ring of recent
    structured events (packet-in, query sent/settled, decision,
    install, breaker transition, health), cheap enough to leave
    enabled, dumped as a JSONL snapshot when a health rule fires or on
    demand — the post-mortem a point-in-time metrics snapshot cannot
    reconstruct.

    Events are plain [(timestamp, kind, attrs)] triples; call sites
    gate attr formatting on {!enabled} (the {!Span} discipline) so a
    disabled recorder costs one load and one branch — and hot sites
    use {!record_lazy} so an {e enabled} recorder defers the attribute
    formatting too, until the event is actually read. Retention is a
    queue of exactly [capacity] events, as the span collector keeps its
    roots: each event past it drops the oldest, O(1). *)

type t

type event = {
  ev_at : float;  (** Seconds, on the caller's clock. *)
  ev_kind : string;
  ev_attrs : (string * string) list;
}

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** [capacity] (default 4096) bounds retained events; the oldest are
    dropped (and counted) past it. @raise Invalid_argument if
    [capacity < 1]. *)

val null : t
(** A shared, permanently disabled recorder: the default for call
    sites that take a [?recorder] argument. {!set_enabled} on it is a
    no-op. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val record : t -> at:float -> ?attrs:(string * string) list -> string -> unit
(** Append an event of kind [string]. No-op when disabled. *)

val record_lazy :
  t -> at:float -> string -> (string * string) list Lazy.t -> unit
(** {!record}, with the attribute list unforced until the event is
    read by {!events} or {!dump} — the hot-path form: most recorded
    events are evicted unread, so their attrs are never formatted. *)

val count : t -> int
(** Events currently retained. *)

val dropped : t -> int
(** Events evicted by the capacity bound over the recorder's life. *)

val events : t -> event list
(** Retained events, newest first. *)

val dump : ?reason:string -> at:float -> t -> string
(** JSONL snapshot: a header line
    [{"kind":"flight-recorder","reason":…,"at":…,"events":N,"dropped":D}]
    followed by one [{"at":…,"kind":…,"attrs":{…}}] line per event in
    canonical order — sorted by (at, kind, attrs), which makes dumps
    byte-identical across runs that record the same events in any
    arrival order (e.g. different shard counts). [reason] defaults to
    ["on-demand"]. *)

val dump_to : ?reason:string -> at:float -> file:string -> t -> unit
(** {!dump} written to [file] (["-"] for stdout). *)
