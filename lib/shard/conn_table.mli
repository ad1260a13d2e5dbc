(** The per-host connection table: multiplexes every controller-to-
    daemon conversation for one host over a single logical connection,
    and {e coalesces} identical in-flight queries — concurrent
    table-miss flows that need the same host answered for the same
    query shape (the canonical key list) park on one waiter list and
    share a single wire exchange instead of issuing duplicates.

    The table is generic in the waiter type ['w]: the controller parks
    a per-flow handle (flow key + owning shard + which end of the flow
    the exchange resolves) and interprets it on settle. The table never
    pairs a response with an exchange: the caller does, by the flow the
    response names — only that flow's initiator knows the (host, shape)
    it started, and settles exactly that exchange. Determinism: waiters
    are returned in join order, so settle-time fan-out is
    reproducible. *)

type 'w t

val create : unit -> 'w t

val join :
  'w t -> host:Netcore.Ipv4.t -> shape:string -> 'w ->
  [ `First | `Coalesced of int ]
(** Park a waiter on the (host, shape) exchange. [`First] means no
    exchange was in flight — the caller must actually send the wire
    query and becomes the {e initiator}. [`Coalesced n] means the
    waiter joined an existing exchange as its [n]th waiter and must
    {e not} send anything: the outcome arrives via {!settle}. *)

val settle : 'w t -> host:Netcore.Ipv4.t -> shape:string -> 'w list
(** Remove the (host, shape) exchange and return its waiters in join
    order (the initiator first); [[]] when none is in flight. The
    initiator calls it on its exchange's terminal outcome — a valid
    answer naming the initiator's flow, or the initiator's timeout or
    breaker trip — so every waiter sees exactly one settlement. *)

val in_flight : 'w t -> int
(** Exchanges currently in flight (gauge). *)

val waiters : 'w t -> int
(** Waiters parked across all in-flight exchanges. *)

val started : 'w t -> int
(** Wire exchanges begun (cumulative [`First] joins). *)

val coalesced : 'w t -> int
(** Duplicate queries avoided (cumulative [`Coalesced] joins). *)
