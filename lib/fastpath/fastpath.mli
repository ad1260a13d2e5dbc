(** Flow-setup fast path: what the controller consults before (or
    instead of) the Figure-1 query exchange.

    - {!Answers}: the answer-reuse table — queries in flight, and
      settled answers of listening sockets, the ones a daemon declares
      to hold for every new flow to the socket, keyed by the socket and
      the hint list, dropped on daemon-side change events and TTL
      expiry. The controller owns one table, and one {!t}, which holds
      the other two; its shards read both and hold neither;
    - the decision cache in {!t}: memoized verdicts keyed by (flow
      class, the answer values the policy reads; see {!decision_key}),
      at most [decision_capacity] of them, oldest out first
      ({!Netcore.Fifo_map}), cleared ({!flush_decisions}) as the
      controller installs each revision;
    - {!Breaker}: a per-host circuit breaker that, after [threshold]
      consecutive query timeouts, treats the host as non-ident++ for a
      backoff window and lets flows decide immediately with absent
      responses (§4's incremental-deployment fallback).

    See DESIGN.md, "Flow-setup fast path", for invalidation rules and
    the soundness argument. *)

open Netcore

module Answers = Answers
module Breaker = Breaker

type config = {
  enabled : bool;
  attr_capacity : int;  (** Settled {!Answers} entries (FIFO-evicted). *)
  attr_ttl : Sim.Time.t;  (** Settled {!Answers} entry lifetime. *)
  decision_capacity : int;  (** Decision-cache entries (FIFO-evicted). *)
  breaker_threshold : int;
      (** Consecutive timeouts before a host's breaker trips. *)
  breaker_backoff : Sim.Time.t;
      (** How long a tripped breaker stays open before a re-probe. *)
}

val default_config : config
(** Enabled; 4096 settled answers with a 5 s TTL, 16384 decisions,
    breaker trips after 3 timeouts for 30 s. *)

val disabled : config
(** [default_config] with [enabled = false] — the controller default,
    so the baseline Figure-1 exchange is unchanged unless asked for. *)

type t

val create : config -> t
val config : t -> config
val enabled : t -> bool

val breaker : t -> Breaker.t
(** Direct access to the breaker, for tests and tooling. *)

(** {2 Circuit breaker} *)

val consult_host :
  t -> now:Sim.Time.t -> Ipv4.t -> [ `Ask | `Absent | `Probe ]
(** [`Ask] for a host with no breaker state, so always when the fast
    path is off: only {!note_timeout} adds state. *)

val note_timeout : t -> now:Sim.Time.t -> Ipv4.t -> bool
(** The host stayed silent through a query's every attempt: feed its
    breaker, and report whether this timeout tripped it (so the
    controller can mark the flow's trace). Always [false] when the
    fast path is off. *)

val note_response : t -> Ipv4.t -> unit

(** {2 Decision cache} *)

type decision_shape = {
  src_port : bool;
      (** Whether the flow's source port enters the key: a rule has a
          [from … port], or the policy calls [allowed()]. *)
  reads : string list option;
      (** The response keys the key carries: [Some] the policy's
          {!Pf.Env.referenced_keys}, or [None] (every pair of every
          section) when the policy calls [allowed()]. *)
}
(** What of a flow and its two answers the policy can read — all a
    decision-cache key needs. Computed once per policy revision. *)

val decision_shape : Pf.Env.t -> decision_shape

val decision_key :
  decision_shape ->
  flow:Five_tuple.t ->
  src:Identxx.Response.t option ->
  dst:Identxx.Response.t option ->
  string
(** The decision-cache key: the flow class (addresses, protocol,
    destination port, and the source port iff [shape.src_port]), then
    per end ["-"] when the answer is absent, or ["R"] followed by each
    read key's length-prefixed {!Identxx.Response.all_values} (or, with
    [reads = None], every section's pairs). The values of a key fix
    both its [@] (latest) and its [*@] (concatenated) access. No header
    line, nonce or unread pair enters the key, so two flows of one
    class whose answers agree on what the policy reads share a key even
    when both answers came off the wire.

    {b Soundness.} Two inputs with equal keys under [decision_shape
    env] get equal {!Pf.Eval.eval} verdicts from [env] (for one
    keystore and function registry), so the key is a pure memo of the
    controller's [Decision.decide]:
    - {!Pf.Eval} reads an answer only through a [Dict_access] of a
      static key, which yields its latest or its concatenated values;
      absent and present-without-the-key read the same, so ["-"]
      versus ["R"] is only conservative;
    - registered functions see only their argument values;
    - a rule reads the flow only through its addresses, protocol and
      ports, all in the key except a source port no top-level rule
      constrains;
    - only [allowed()] evaluates rules the policy does not contain,
      which may read any key and any port, and its shape keys on the
      source port and every pair. *)

val find_decision : t -> key:string -> Pf.Eval.verdict option
(** Counts a hit or a miss; the controller asks only with the fast path
    on. *)

val store_decision : t -> key:string -> flow:Five_tuple.t -> Pf.Eval.verdict -> unit

(** {2 Invalidation} *)

val note_host_changed : t -> Ipv4.t -> unit
(** A daemon-side change event (login/logout, process spawn/exit,
    configuration reload): drop every cached decision the host's answers
    may have influenced. *)

val revoke_ip : t -> Ipv4.t -> unit
(** Principal revocation: like {!note_host_changed}, also closing the
    host's breaker state so a now-suspect silent host is re-probed. *)

val flush_decisions : t -> unit
(** Drop every memoized verdict (a new policy revision or a policy
    override): breaker state survives, since policy operations do not
    change what hosts answer. *)

(** {2 Observability} *)

val register_metrics :
  t -> ?labels:(string * string) list -> Obs.Registry.t -> unit
(** Register the fast path's series with a metrics registry as callback
    series: the caches keep their own counters and the registry samples
    them at snapshot time, so nothing is added to the per-flow path.
    [labels] (e.g. [("controller", "0")]) are prepended to every
    series. {!Answers.register_metrics} registers the [cache="attr"]
    series. The full catalog is in doc/OBSERVABILITY.md under
    [identxx_fastpath_*]. *)

(** {2 Counters} *)

type counters = {
  decision_hits : int;
  decision_misses : int;
  decision_evictions : int;
  breaker_trips : int;
  breaker_fastpaths : int;  (** Flows decided with a breaker-open absent. *)
}

val counters : t -> counters
