(** The ident++ OpenFlow controller (§3.4, Figure 1).

    On a packet-in for an unknown flow, the controller queries the
    flow's source and destination ident++ daemons, waits for the
    responses (with a timeout — a silent daemon yields an absent
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
    queries are not allowed to cause new queries". *)

open Netcore

type query_targets = Both | Src_only | Dst_only | Neither
(** Which ends to query — §4's incremental-deployment modes. *)

type shard_config = {
  shard_count : int;  (** Flow-setup shards (≥ 1). *)
  shard_service : Sim.Time.t;
      (** Simulated per-packet-in service time charged to the owning
          shard's run queue. [Sim.Time.zero] (the default) keeps runs
          byte-identical across shard counts — the determinism oracle's
          regime; a positive value models N controller cores in
          parallel, which is what the throughput benchmark measures. *)
  coalesce : bool;
      (** Multiplex per-host daemon connections through the shared
          {!Shard.Conn_table}, so concurrent identical queries share
          one wire exchange. *)
}
(** Configuration of the sharded flow-setup engine (DESIGN.md §12). *)

val sharded : ?service:Sim.Time.t -> ?coalesce:bool -> int -> shard_config
(** [sharded n] is [n] shards with zero service time and coalescing
    on. *)

type config = {
  query_timeout : Sim.Time.t;  (** Wait this long for daemon responses. *)
  entry_idle_timeout : Sim.Time.t option;  (** For installed entries. *)
  install_along_path : bool;
      (** Install entries at every switch on the path (Figure 1 step 4)
          vs. only at the packet-in switch (ablation). *)
  require_signed_responses : bool;
      (** Ignore responses that do not carry a valid {!Identxx.Signed}
          section from a keystore-known signer — spoofed responses then
          cannot influence decisions (a §5.3-style hardening). An
          ignored response settles nothing: the flows awaiting it decide
          on a later valid answer or at the query timeout. *)
  query_retries : int;
      (** Re-send unanswered queries this many times, each after
          [query_timeout], before deciding with what arrived (0 = a
          single attempt). *)
  query_targets : query_targets;
  default : Pf.Ast.action;  (** When no policy rule matches. *)
  fastpath : Fastpath.config;
      (** Flow-setup fast path (attribute/decision caches and the
          silent-host circuit breaker — see {!Fastpath} and DESIGN.md).
          {!Fastpath.disabled} by default: the baseline controller runs
          the full Figure-1 exchange for every table-miss flow. *)
  proactive : bool;
      (** Compile the policy's static slice ({!Analysis.Fdd}) into
          wildcard flow entries with {!Compiler} and keep them installed
          on every switch of the domain, so statically-decided flows
          never generate a packet-in — only the reactive residue (and
          ident++ exchange traffic, which a guard entry always punts)
          reaches the controller. Off by default (the paper's purely
          reactive Figure-1 exchange). See DESIGN.md §11. *)
  shards : shard_config option;
      (** [Some s] partitions flow setup across [s.shard_count] run
          queues by flow-key hash, multiplexes daemon connections with
          query coalescing, and batches flow-mod installs per tick.
          [None] (the default) is one sequential loop with no run
          queues, connection table or batching; both pair daemon
          answers the same way. See DESIGN.md §12. *)
}

val default_config : config
(** Both ends queried, 5 ms query timeout, 30 s idle timeout on entries,
    path installation, default pass (vanilla PF).

    Whatever the configuration, the controller installs a drop entry at
    the ingress switch for every blocked flow, and pushes the policy's
    leading network-only [block quick] rules into the switches as
    maximum-priority drop entries (see {!Precompile}), so that traffic
    dies at line rate without packet-ins. Installed entries carry no
    hard timeout. Queries hint the keys the policy reads, or the
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

val spans : t -> Obs.Span.t
(** The flow-setup span collector (disabled unless [?spans] was given
    or a caller enables it). *)

val recorder : t -> Obs.Recorder.t
(** The flight recorder (the [?recorder] argument, or the shared
    disabled {!Obs.Recorder.null}). *)

val fastpath : t -> Fastpath.t
(** Shard 0's fast-path state (caches and breaker) — the whole
    controller's when unsharded; mostly for tests and tooling. Counters
    also surface through {!stats}, which aggregates all shards. *)

val shard_count : t -> int
(** Number of flow-setup shards (1 when [config.shards] is [None]). *)

val decision : t -> Decision.t
val keystore : t -> Idcrypto.Sign.keystore
val config : t -> config

val audit : t -> Audit.t
(** Every decision this controller made, with the rule that made it —
    the administrator's record for auditing delegated policy (S1). *)

(** {2 Override and revoke (S1, S7)}

    Cached flow entries outlive policy changes, so changing or revoking
    delegated policy must also flush the caches in this controller's
    domain; these helpers do both atomically (in simulation order). *)

val flush_cache : t -> unit
(** Delete every flow entry in the domain's switches and forget
    connection state; all flows are re-decided on their next packet.
    Precompiled quick-block entries are reinstalled afterwards. *)

val sync_precompiled : t -> unit
(** Resynchronize the proactive drop entries with current policy (runs
    automatically on every policy change). *)

val sync_proactive : ?force:bool -> t -> unit
(** Recompile the policy's static slice and push the delta of wildcard
    entries to the domain's switches (no-op unless [config.proactive]).
    Runs automatically on every policy change; the per-node compile
    cache makes an unchanged policy region free to recompile. [force]
    reinstalls every entry instead of diffing — used after the
    dataplane was wiped (cache flush) or partially clipped
    (revocation). *)

val proactive_table : t -> Compiler.table
(** The abstract compiled table currently installed (empty when
    [config.proactive] is off or nothing compiled yet). *)

val update_file : t -> name:string -> string -> (unit, string) result
(** Replace a [.control] file and flush. *)

val revoke_file : t -> name:string -> unit
(** Remove a [.control] file (e.g. a delegation granted to a user or a
    third party) and flush, so revocation takes effect immediately. *)

val revoke_principal : t -> ip:Ipv4.t -> int
(** Revoke a principal by address: drop its connection state (returned),
    purge its cached attributes and every memoized decision its answers
    may have influenced, reset its breaker state, and delete every
    installed dataplane entry with the address at either end. Already
    in-flight pending flows are unaffected (they decide with the
    responses they gathered). *)

val note_host_changed : t -> Ipv4.t -> unit
(** A daemon-side change event (login/logout, process spawn or exit,
    daemon configuration reload) occurred on the host: invalidate its
    cached attributes and dependent decisions. {!Deploy} wires
    {!Identxx.Daemon.on_change} to this. *)

(** {2 Interception hooks (§3.4)} *)

val set_response_augment :
  t -> (Identxx.Response.t -> Identxx.Key_value.section) -> unit
(** When a response transits this controller's domain, append the given
    section (empty section = leave unchanged). Models §4's network
    collaboration: a branch controller adding its own (signed) rules or
    drop requests to responses leaving its network. *)

val set_local_answers :
  t -> (Ipv4.t -> Identxx.Key_value.section option) -> unit
(** Answer queries on behalf of end-hosts: when a query targets an
    address this function covers, the controller spoofs a response
    itself and does not forward the query. Also used for the
    "controllers implement ident++ but end-hosts don't" deployment
    (§4, Incremental Benefit). *)

(** {2 Statistics} *)

type stats = {
  flows_seen : int;  (** Distinct flows that reached the controller. *)
  allowed : int;
  blocked : int;
  queries_sent : int;
  responses_received : int;
  query_timeouts : int;
  query_retries_sent : int;  (** Retry rounds issued. *)
  responses_rejected : int;  (** Failed signature checks. *)
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
(** Aggregated across every shard, so the totals are shard-count
    invariant (each shard owns its own counter series; the sum is the
    controller's). *)

val coalesced_queries : t -> int
(** Duplicate in-flight queries absorbed by connection-table coalescing
    (0 when unsharded or coalescing is off). *)

val wire_exchanges : t -> int
(** Wire query exchanges actually begun by the connection table (0 when
    unsharded or coalescing is off). *)

val batch_flushes : t -> int
(** Batched install flushes performed (0 when unsharded). *)

val shard_makespan : t -> Sim.Time.t
(** Latest simulated completion time across all shard run queues — the
    parallel-makespan figure the throughput benchmark divides flows by.
    [Sim.Time.zero] when unsharded or with zero service time. *)

(** {2 Flow monitoring} *)

val request_stats : t -> Openflow.Message.switch_id -> unit
(** Ask a switch for a snapshot of its flow table (OpenFlow flow-stats).
    The reply arrives asynchronously; read it with {!switch_stats}. *)

val switch_stats :
  t -> Openflow.Message.switch_id -> Openflow.Message.stats_reply option
(** The most recent stats reply received from the switch. *)

(** {2 Lower-level access, used by tests} *)

val handle_message : t -> Openflow.Message.to_controller -> unit
(** The callback registered with the network. *)

val pending_count : t -> int
