(** Precomputed all-pairs routing state over the switch graph.

    One shortest-path tree is maintained per destination switch
    ("routing epoch" state), giving O(1) [next_exn] and [distance]
    lookups. Topology events update the trees {e incrementally}: a
    link-down recomputes only the subtree that routed over the failed
    edge (per destination, skipping destinations whose tree never used
    it); a link-up runs a relaxation cascade from the improved
    endpoints and stops as soon as nothing improves. The cost of an
    event is therefore proportional to the affected region of the
    fabric, not to its size — see doc/TOPOLOGY.md for the model and
    {!stats} for the counters that make the claim checkable.

    This module is deliberately graph-neutral: vertices are switch
    dpids, weights are integer nanoseconds. {!Topology} owns the
    node/port/host model and keeps an instance of this engine in sync
    with its mutations; everything else looks up routes through the
    Topology API and picks the precomputed state up transparently. *)

type t

type stats = {
  full_recomputes : int;  (** From-scratch all-trees computations. *)
  link_events : int;  (** Incremental [link_up] + [link_down] calls. *)
  dests_recomputed : int;
      (** Destination trees actually touched by incremental updates. *)
  dests_skipped : int;
      (** Destination trees proven unaffected and left untouched. *)
  nodes_settled : int;
      (** Nodes re-settled across all incremental updates — the
          "affected region" an update actually paid for. *)
}

val create : unit -> t

val add_switch : t -> int -> unit
(** Add an isolated vertex. Its own tree is just itself; no other tree
    changes until a link arrives. Idempotent. *)

val load_link : t -> int * int -> int * int -> weight:int -> unit
(** [load_link t (u, pu) (v, pv) ~weight] adds an edge to the adjacency
    only, without updating any tree — bulk topology replay. Callers
    must finish with {!recompute}. Endpoints are [(dpid, port)] pairs;
    [weight] must be positive. *)

val link_up : t -> int * int -> int * int -> weight:int -> unit
(** Add an edge and incrementally repair every destination tree the new
    edge improves (relaxation cascade; unaffected trees are skipped). *)

val link_down : t -> int * int -> int * int -> unit
(** Remove an edge and incrementally repair every destination tree that
    routed over it (bounded re-Dijkstra over the orphaned subtree;
    trees that never used the edge are skipped). Unknown edges are
    ignored. *)

val recompute : t -> unit
(** Full from-scratch rebuild of every tree (one Dijkstra per
    destination switch). The comparison baseline for the incremental
    path, and the bulk-load finisher after {!load_link}. *)

val next_exn : t -> src:int -> dst:int -> int * int
(** [(out_port, next switch)] together, as the tree stores them: it
    allocates nothing. @raise Not_found when unreachable or either dpid
    is unknown. *)

val switch_count : t -> int
val stats : t -> stats
