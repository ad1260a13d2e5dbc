(** The network graph: switches and hosts joined by point-to-point links
    with latencies, plus the precomputed routing state controllers use
    to install entries "along the path" (Figure 1, step 4).

    Routing is backed by {!Routing}: one next-hop table per destination
    switch, computed once per topology epoch and updated incrementally
    on link and host events, so {!next_hop} and {!switch_path} are O(1)
    and O(path) respectively — flat in fabric and host count. Hosts are
    routed via their {e primary attachment} (lowest-numbered host
    port); see doc/TOPOLOGY.md for the full model. *)

type node = Sw of Message.switch_id | Host of string

type endpoint = { node : node; port : int }

type link = { a : endpoint; b : endpoint; latency : Sim.Time.t }

type t

val create : unit -> t
val add_switch : t -> Message.switch_id -> unit
val add_host : t -> string -> unit

val link :
  t -> ?latency:Sim.Time.t -> node * int -> node * int -> unit
(** Bidirectional link between two (node, port) endpoints. Default
    latency is 10us. @raise Invalid_argument if either endpoint's node
    is unknown or the port is already wired. *)

val unlink : t -> node * int -> unit
(** Remove the link wired at this endpoint (both directions) — a
    link-down event. Routing state repairs incrementally: only
    destination trees that crossed the removed link are touched.
    @raise Invalid_argument if the port is not wired. *)

val remove_host : t -> string -> unit
(** Detach a host: unlink every port, then drop the node. Routing cost
    is O(1) — host reachability is derived from the attachment, not
    from per-host routing trees. @raise Invalid_argument if unknown. *)

val epoch : t -> int
(** Monotonic mutation counter: bumps on every node/link change and
    every {!touch}. Cached artifacts derived from the topology (routing
    tables, compiled paths) are valid for exactly one epoch value. *)

val on_change : t -> (unit -> unit) -> unit
(** Run this hook, in registration order, after every epoch bump once
    the routing state has caught up. *)

val touch : t -> unit
(** Bump the epoch and run the hooks without changing the graph, for
    state routes depend on that it does not hold (a host's address). *)

val switches : t -> Message.switch_id list
val hosts : t -> string list
(** The host names in sorted order: the same list, physically, until a
    host is added or removed. *)

val links : t -> link list

val wire : t -> node -> int -> endpoint * Sim.Time.t
(** What is connected at this node's port, and the link latency — the fabric's
    per-hop delay lookup, O(1). It allocates nothing.
    @raise Not_found if the port is not wired. *)

val ports_of : t -> node -> int list
(** The node's wired ports, sorted ascending. O(degree). *)

val host_attachment : t -> string -> endpoint option
(** The switch endpoint a host hangs off ([None] if unattached). The
    returned endpoint is the {e switch side}: its node is the switch and
    its port the switch port facing the host. A multihomed host's
    primary attachment is its lowest-numbered port. *)

val switch_path :
  t -> src:string -> dst:string -> (Message.switch_id * int * int) list option
(** Hop-by-hop switch path from host [src] to host [dst], as
    [(dpid, in_port, out_port)] triples — exactly what a controller
    needs to install a flow along the path. [None] when unreachable.
    Minimizes total link latency; O(path length) over the precomputed
    next-hop tables. *)

val iter_path :
  t ->
  src:string ->
  dst:string ->
  ('a -> Message.switch_id -> int -> unit) ->
  'a ->
  bool
(** [iter_path t ~src ~dst f a] calls [f a dpid out_port] for each
    switch on the path {!switch_path} lists, in order, without building
    a list: a closed [f] with its state in [a] allocates no closure per
    walk. False, with no call, when there is no path or [src = dst]. *)

val next_hop : t -> from:Message.switch_id -> dst_host:string -> int option
(** The output port at switch [from] on a shortest path toward
    [dst_host]; [None] when unreachable. Used by transit controllers to
    forward intercepted ident++ packets hop by hop (§3.4). O(1): a
    host-attachment lookup plus a next-hop table lookup. *)

val next_hop_port : t -> from:Message.switch_id -> dst_host:string -> int
(** {!next_hop}'s port, or -1 when unreachable: allocates nothing,
    for a caller that asks it of every (switch, host) pair. *)

val recompute_routes : t -> unit
(** Force a full from-scratch rebuild of the routing state (one
    Dijkstra per destination switch) — the comparison baseline for the
    incremental update path; never required for correctness. *)

val routing_stats : t -> Routing.stats
(** Counters from the routing engine (full recomputes, incremental
    events, trees touched vs skipped, nodes re-settled), materializing
    the routing state if needed. *)

val node_to_string : node -> string
