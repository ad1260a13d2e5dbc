(** The per-host connection table: multiplexes every controller-to-
    daemon conversation for one host over a single logical connection,
    and {e coalesces} in-flight queries that should get one answer —
    concurrent table-miss flows that ask the same host about the same
    socket of it for the same query shape (the canonical key list) park
    on one waiter list and share a single wire exchange instead of
    issuing duplicates.

    The controller parks only destination queries here, and the socket
    is the destination's (protocol and port), so a join is expected to
    hold: a daemon answers every new flow to one listening socket alike.
    Whether it does is the daemon's to say, in the answer's declared
    scope; the caller checks each waiter against it at settle time and
    re-asks for a waiter it does not cover.

    The table is generic in the waiter type ['w]: the controller parks
    a per-flow handle (flow key + owning shard + which end of the flow
    the exchange resolves) and interprets it on settle. The table never
    pairs a response with an exchange: the caller does, by the flow the
    response names — only that flow's initiator holds the exchange it
    started, and settles exactly that exchange. Determinism: waiters
    are returned in join order, so settle-time fan-out is
    reproducible. *)

type 'w t

type 'w exchange
(** One in-flight exchange, held by its initiator. *)

val create : unit -> 'w t

val join :
  'w t -> host:Netcore.Ipv4.t -> shape:string -> socket:int -> 'w ->
  [ `First of 'w exchange | `Coalesced of int ]
(** Park a waiter on the (host, shape, socket) exchange. [`First ex]
    means no exchange was open — the caller must actually send the wire
    query and becomes the {e initiator} of [ex]. [`Coalesced n] means
    the waiter joined an open exchange as its [n]th waiter and must
    {e not} send anything: the outcome arrives via {!settle}. *)

val settle : 'w t -> 'w exchange -> 'w list
(** Close the exchange and return its waiters in join order (the
    initiator first); [[]] once already settled. The initiator calls it
    on its exchange's terminal outcome — a valid answer naming the
    initiator's flow, or the initiator's timeout or breaker trip — so
    every waiter sees exactly one settlement. *)

val close_host : 'w t -> Netcore.Ipv4.t -> unit
(** Stop every open exchange with the host from taking new waiters,
    after a change on the host: an answer already on its way predates
    the change, so later flows start their own exchange. The closed
    exchanges still settle their waiters. *)

val in_flight : 'w t -> int
(** Exchanges open to new waiters (gauge). *)

val waiters : 'w t -> int
(** Waiters parked across all open exchanges. *)

val started : 'w t -> int
(** Wire exchanges begun (cumulative [`First] joins). *)

val coalesced : 'w t -> int
(** Duplicate queries avoided (cumulative [`Coalesced] joins). *)
