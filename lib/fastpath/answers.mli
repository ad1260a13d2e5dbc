(** The answer-reuse table: every way one ident++ answer from a
    destination serves more than its own flow, in one table.

    The Figure-1 exchange asks a flow's end hosts for every table-miss
    flow. A listening socket's answer holds beyond its flow: its owner
    is the same for every new flow to its port. The daemon says so in
    its signed scope list ({!Identxx.Signed.scope}). Two kinds of reuse
    follow, and both key on the same triple: the destination host, the
    proto and port of its socket, and the query's canonical hint list
    (a daemon leaves out what was not asked for). So a key is in at most
    one of two tables:
    - the exchanges in flight: a query is on the wire. Its initiator
      holds the {!exchange}; concurrent flows asking the same question
      may park on it as waiters instead of sending their own.
    - the settled answers: the answer arrived and declared [Socket] or
      [Host] scope, and reuse is on: it answers later queries until its
      expiry. At most [capacity] of them, oldest out first
      ({!Netcore.Fifo_map}).

    A join is expected to hold, not assumed to: whether the answer
    covers each waiter is the daemon's to say, in the answer's declared
    scope, and the caller checks each waiter against it at settle time.
    The table never pairs a response with an exchange: the caller does,
    by the flow the response names.

    A host change (login/logout, process exit, a listener re-bound; see
    {!Identxx.Daemon.on_change}) drops the host's entries in both
    tables. An exchange it drops still settles its waiters, but its
    answer predates the change, so it stores nothing.

    The table is generic in the waiter type ['w]. Waiters are returned
    in join order, so settle-time fan-out is reproducible. *)

open Netcore

type 'w t

type 'w exchange
(** One in-flight query, held by its initiator. *)

val create : ?capacity:int -> ttl:Sim.Time.t -> reuse:bool -> unit -> 'w t
(** [reuse] turns settled answers on (the controller's fast path):
    without it, nothing settles and {!find} always misses, uncounted.
    [capacity] bounds the settled entries (default 4096), however many
    leave by expiry or invalidation. [ttl] bounds each settled entry's
    life. *)

val expires_key : string
(** ["expires"] — the response key read for an answer's self-imposed
    lifetime bound, in (possibly fractional) seconds: a settled entry
    lives the smaller of it and the table's TTL (the signed-section
    analogue of a certificate lifetime). *)

val hint_key : string list -> string
(** The canonical form of a query's hint list (sorted, duplicates
    dropped, comma-joined): the [hints] argument below, computed once
    per hint list. *)

val find :
  'w t ->
  now:Sim.Time.t ->
  hints:string ->
  flow:Five_tuple.t ->
  Identxx.Response.t option
(** The live settled answer of the socket [flow]'s destination end
    reaches, whoever signed it; an expired one is dropped on the way.
    Counts a hit or a miss when reuse is on. *)

val join :
  'w t ->
  hints:string ->
  flow:Five_tuple.t ->
  joinable:bool ->
  'w ->
  [ `First of 'w exchange | `Joined | `Alone ]
(** A query about [flow]'s destination is due (no live settled answer
    served it), for waiter [w].
    - [`Joined]: an exchange is in flight and [joinable]; [w] parked on
      it and must {e not} send: the outcome arrives through {!settle}.
    - [`First ex]: the caller sends the query and initiates [ex], which
      replaces any settled entry. An exchange opens when someone else
      may take its answer: a joiner ([joinable]) or, with reuse on, a
      later query.
    - [`Alone]: the caller sends the query and holds no exchange: one
      is in flight that [w] may not join, or nobody else could take
      the answer. *)

val settle :
  'w t ->
  now:Sim.Time.t ->
  signer:string ->
  'w exchange ->
  (Identxx.Signed.scope * Identxx.Response.t) option ->
  'w list
(** Close the exchange and return its waiters in join order (the
    initiator first); [[]] once already settled. The initiator calls it
    on its query's terminal outcome: [Some (scope, response)] for a
    valid answer naming the initiator's flow, with the answer's
    narrowest declared scope, or [None] for its timeout or breaker
    trip. Only a {e current} exchange, one no host change dropped,
    touches the tables: it leaves the exchanges, and with reuse on and a
    [Socket] or [Host] answer, its answer settles, signed by [signer],
    the handle its signature section names ({!Identxx.Signed.signer};
    [""] for no answer, and for an answer without one). *)

val drop_host : 'w t -> Ipv4.t -> unit
(** A change on the host: drop its entries in both tables. Dropped
    settled entries count as invalidations. *)

val invalidate_signer : 'w t -> string -> unit
(** Drop every settled entry authenticated by the signer (key
    revocation). *)

(** {2 Counters} *)

val size : 'w t -> int
(** Settled entries held. *)

val in_flight : 'w t -> int
(** Exchanges in flight in the table (gauge). *)

val started : 'w t -> int
(** Exchanges opened (cumulative [`First] joins). *)

val coalesced : 'w t -> int
(** Queries that joined an exchange instead of going on the wire
    (cumulative [`Joined] joins). *)

val hits : 'w t -> int
val misses : 'w t -> int

val evictions : 'w t -> int
(** Capacity evictions only (not TTL expiries). *)

val invalidations : 'w t -> int
(** Settled entries dropped by {!drop_host}/{!invalidate_signer}. *)

val register_metrics :
  'w t -> ?labels:(string * string) list -> Obs.Registry.t -> unit
(** Register the table's series as callbacks read at snapshot time: the
    settled entries' [cache="attr"] series in
    [identxx_fastpath_cache_events_total] and
    [identxx_fastpath_cache_size], and the exchanges'
    [identxx_shard_exchanges_total] ({!started}),
    [identxx_shard_coalesced_queries_total] ({!coalesced}) and
    [identxx_shard_inflight_exchanges] ({!in_flight}). [labels] are
    prepended to every series. *)
