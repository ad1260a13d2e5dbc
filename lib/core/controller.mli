(** The ident++ OpenFlow controller (§3.4, Figure 1).

    On a packet-in for an unknown flow, the controller queries the
    flow's source and destination ident++ daemons — those of the two
    whose answers the policy can read for this flow ({!Query_plan}) —
    waits for the responses (with a timeout — a silent daemon yields an absent
    response, which information-dependent policy treats as failure to
    prove), evaluates PF+=2 policy, and either installs flow entries
    along the whole path (allow) or a drop entry at the ingress switch
    (deny). The decision is cached by the switches' flow tables; later
    packets of the flow never reach the controller.

    ident++ traffic itself (TCP port 783) is never the subject of
    queries. A controller that sees ident++ queries or responses it did
    not originate is an {e intercepting} controller (§3.4): it may
    answer queries on behalf of end-hosts (spoofing their address,
    without forwarding the query), may augment responses with an extra
    section, and otherwise forwards them hop-by-hop — "intercepted
    queries are not allowed to cause new queries".

    Every input (a switch's message, a policy revision, a topology
    change, the work posted to its shards) goes through one step
    function, which {!create} binds to the network, the shards,
    {!Policy_store.on_change} and {!Openflow.Topology.on_change}
    (DESIGN.md, "One way in, one way out"). *)

open Netcore

type shard_config = {
  shard_count : int;  (** Flow-setup shards (≥ 1). *)
  shard_service : Sim.Time.t;
      (** Simulated per-packet-in service time charged to the owning
          shard's run queue. [Sim.Time.zero] (the default) keeps runs
          byte-identical across shard counts — the determinism oracle's
          regime; a positive value models N controller cores in
          parallel, which is what the throughput benchmark measures. *)
}
(** Configuration of the sharded flow-setup engine's run queues
    ({!Shard.Engine}; everything sent to a switch goes through
    {!Shard.Batch}): DESIGN.md §12. *)

val sharded : ?service:Sim.Time.t -> int -> shard_config
(** [sharded n] is [n] shards with zero service time. *)

type config = {
  query_timeout : Sim.Time.t;  (** Wait this long for daemon responses. *)
  entry_idle_timeout : Sim.Time.t option;  (** For installed entries. *)
  require_signed_responses : bool;
      (** Ignore responses that do not carry a valid {!Identxx.Signed}
          section from a keystore-known signer — spoofed responses then
          cannot influence decisions (a §5.3-style hardening). Each
          query then carries a fresh nonce ({!Identxx.Query.t}[.nonce]),
          and an answer is also ignored when its echoed addresses or
          nonce are not that query's, or when its signer is bound to
          other hosts ({!Idcrypto.Sign.answers_for}). An ignored
          response settles nothing: the flows awaiting it decide on a
          later valid answer or at the query timeout. Each is logged in
          {!Audit.rejections}. *)
  query_retries : int;
      (** Re-send unanswered queries this many times, each after
          [query_timeout], before deciding with what arrived (0 = a
          single attempt). *)
  default : Pf.Ast.action;  (** When no policy rule matches. *)
  fastpath : Fastpath.config;
      (** Flow-setup fast path (attribute/decision caches and the
          silent-host circuit breaker — see {!Fastpath} and DESIGN.md).
          {!Fastpath.disabled} by default: the baseline controller runs
          the full Figure-1 exchange for every table-miss flow. *)
  proactive : bool;
      (** Which static regions of the policy's diagram ({!Analysis.Fdd})
          the compiled table decides ({!Compiler.offload}). On: every
          region no [log] rule may decide, so statically-decided flows
          never generate a packet-in — only the reactive residue, logged
          regions and ident++ exchange traffic (which a guard entry
          always punts) reach the controller. A compiled pass entry
          jumps to each switch's table 1, where the controller keeps
          one route per reachable attached host and repairs the routes
          on every topology change. Off (the default, the paper's
          reactive Figure-1 exchange): only the drops that [block
          quick] rules make in every context, and table 1 stays empty.
          See DESIGN.md §11 and §13. *)
  shards : shard_config option;
      (** Every controller runs flow setup on the shard engine: run
          queues by flow-key hash, flow-mod installs batched per tick.
          [Some s] asks for [s.shard_count] run queues; [None] (the
          default) is exactly [Some (sharded 1)]. Each flow's span names
          its shard, and a destination query to a target expected to
          sign joins an exchange in flight with the same socket
          ({!Fastpath.Answers}). The shards hold no state: the pending
          table, fast path, answer table and metrics are the
          controller's, so a verdict or a breaker trip is the same
          whatever the shard count. The field is an option only because
          existing callers build it as [Some (sharded n)]. See DESIGN.md
          §12. *)
}

val default_config : config
(** Both ends queried, 5 ms query timeout, 30 s idle timeout on entries,
    default pass (vanilla PF).

    Whatever the configuration, the controller installs a drop entry at
    the ingress switch for every blocked flow, and installs the compiled
    drops of the policy's [block quick] rules on every switch (see
    [proactive]), so that traffic dies at line rate without packet-ins.
    The compiled band sits below the per-flow entries: as with every
    other rule, a new [block quick] reaches an already-cached flow only
    at the next {!flush_cache}, which {!update_file} and {!revoke_file}
    run and a raw {!Policy_store.add} does not. Installed entries carry
    no hard timeout. Queries hint the keys the policy reads, or the
    identity and application keys of §3.3 when it reads none. *)

type t

val create :
  ?config:config ->
  ?keystore:Idcrypto.Sign.keystore ->
  ?functions:Pf.Fnreg.t ->
  ?obs:Obs.Registry.t ->
  ?spans:Obs.Span.t ->
  ?recorder:Obs.Recorder.t ->
  network:Openflow.Network.t ->
  id:Openflow.Network.controller_id ->
  unit ->
  t
(** Creates the controller and registers it with the network under [id].
    Switches must separately be assigned to its domain
    ({!Openflow.Network.assign_switch}; domain 0 is the default).

    [obs] is the metrics registry the controller records into (every
    series is labelled [controller="<id>"]; see doc/OBSERVABILITY.md
    for the catalog) — by default a private, enabled registry, so
    {!stats} works without any setup. [spans] is the flow-setup span
    collector — by default a {e disabled} private collector, since
    retained spans are only useful to a caller holding the collector.
    [recorder] is the flight recorder fed with structured flow-setup
    events (packet-in, query sent/settled, decision, install, breaker
    transitions; see doc/OBSERVABILITY.md for the schema) — by default
    {!Obs.Recorder.null}, so recording costs one branch per site.
    Recorder events carry no controller or shard attribution: the same
    workload dumps byte-identically whatever the shard count. *)

val policy : t -> Policy_store.t

val metrics : t -> Obs.Registry.t
(** The registry this controller records into (the [?obs] argument, or
    the private default). Exportable with {!Obs.Export}. *)

val fastpath : t -> Fastpath.t
(** The controller's fast-path state (decision cache and breaker), which
    every shard reads; mostly for tests and tooling. Counters also
    surface through {!stats}. *)

val shard_count : t -> int
(** Number of flow-setup run queues. *)

val decision : t -> Decision.t
val keystore : t -> Idcrypto.Sign.keystore
val config : t -> config

val audit : t -> Audit.t
(** Every decision this controller made, with the rule that made it —
    the administrator's record for auditing delegated policy (S1). *)

(** {2 Override and revoke (S1, S7)}

    Cached flow entries outlive policy changes, so changing or revoking
    delegated policy must also flush the caches in this controller's
    domain; these helpers do both atomically (in simulation order). A
    flush or a revocation deletes in table 0 only, and re-adds from the
    controller's view of the switches the compiled entries and guards
    its deletes took: each switch gets the deletes, a barrier and those
    adds in the tick's batched pass, after the installs queued earlier
    in the instant, so those go too. Table 1 is left alone. *)

val flush_cache : t -> unit
(** Delete every table-0 entry on the domain's switches, this
    instant's installs too, re-add the compiled table and its guards,
    and forget connection state and memoized verdicts; every flow is
    re-decided on its next packet. *)

val proactive_table : t -> Compiler.table
(** The abstract compiled table currently installed: empty until the
    first sync; drops and punts alone when [config.proactive] is
    off. *)

val update_file : t -> name:string -> string -> (unit, string) result
(** Replace a [.control] file and flush. *)

val revoke_file : t -> name:string -> unit
(** Remove a [.control] file (e.g. a delegation granted to a user or a
    third party) and flush, so revocation takes effect immediately. A
    name the store does not hold changes and sends nothing. *)

val revoke_principal : t -> ip:Ipv4.t -> int
(** Revoke a principal by address: drop its connection state (returned),
    purge its cached attributes and every memoized decision its answers
    may have influenced, reset its breaker state, and delete every
    table-0 entry with the address at either end, this instant's
    installs too; the compiled ones come back and every route stays.
    Pending flows are unaffected (they decide with the responses they
    gathered). *)

val note_host_changed : t -> Ipv4.t -> unit
(** A daemon-side change event (login/logout, process spawn or exit,
    daemon configuration reload) occurred on the host: invalidate its
    cached attributes and dependent decisions. {!Deploy} wires
    {!Identxx.Daemon.on_change} to this. *)

(** {2 Interception (§3.4)}

    The controller answers queries for its hosts and augments responses
    that cross its domain from its policy alone: the PF+=2 [intercept
    query … answer { … }] and [intercept response … augment { … }]
    declarations (doc/PROTOCOL.md §5). No hook is set after
    {!create}. *)

(** {2 Statistics} *)

type stats = {
  flows_seen : int;  (** Distinct flows that reached the controller. *)
  allowed : int;
  blocked : int;
  queries_sent : int;
  responses_received : int;
  query_timeouts : int;
  query_retries_sent : int;  (** Retry rounds issued. *)
  responses_rejected : int;
      (** Answers refused under [require_signed_responses]. *)
  responses_augmented : int;
  queries_answered_locally : int;
  eval_errors : int;
  fastpath_decisions : int;
      (** Flows decided without any query exchange: every needed answer
          came from the attribute cache or an open breaker. *)
  attr_cache_hits : int;
  attr_cache_misses : int;
  attr_cache_evictions : int;
  attr_cache_invalidations : int;
  decision_cache_hits : int;
  decision_cache_misses : int;
  decision_cache_evictions : int;
  breaker_trips : int;
  breaker_fastpaths : int;
}

val stats : t -> stats
(** The controller's counters, read back from its registry series; the
    shards keep none of their own, so the totals are shard-count
    invariant. *)

val coalesced_queries : t -> int
(** Destination queries that joined an exchange in flight instead of
    going on the wire. *)

val wire_exchanges : t -> int
(** Exchanges opened in the answer table ({!Fastpath.Answers.started}):
    destination queries some other query could share, by joining them
    (to a target expected to sign) or by reusing their settled answer
    (the fast path on). A source answers for its own connection,
    which no other flow shares, and never opens one. *)

val batch_flushes : t -> int
(** Batched passes flushed. *)

val shard_makespan : t -> Sim.Time.t
(** Latest simulated completion time across all shard run queues — the
    parallel-makespan figure the throughput benchmark divides flows by.
    With zero service time, the time of the latest post. *)

(** {2 Flow monitoring} *)

val request_stats : t -> Openflow.Message.switch_id -> unit
(** Ask a switch of the domain for a snapshot of its flow table
    (OpenFlow flow-stats) in the tick's batched pass; the reply arrives
    asynchronously, read it with {!switch_stats}. A switch outside the
    domain is not asked. *)

val switch_stats :
  t -> Openflow.Message.switch_id -> Openflow.Message.stats_reply option
(** The most recent stats reply received from the switch. *)

(** {2 Lower-level access, used by tests} *)

val handle_message : t -> Openflow.Message.to_controller -> unit
(** The callback registered with the network: a switch message's way
    into the step function. *)

val pending_count : t -> int

val names_pending :
  t -> from_ip:Ipv4.t -> to_ip:Ipv4.t -> Identxx.Response.t -> bool
(** Whether a daemon answer from [from_ip] to [to_ip] names a pending
    flow: the probe {!handle_message} routes each answer by, which reads
    the answer's addresses and echoed ports where they sit and
    allocates nothing. *)

val host_prefixes : t -> int
(** Hosts whose exact prefix the reactive matches share: only addresses
    of attached hosts enter, so spoofed sources do not grow it. *)
