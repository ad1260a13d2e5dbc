(** A switch's flow table: priority-ordered wildcard matching with an
    exact-match fast path, per OpenFlow 1.0 semantics.

    Table order is priority descending, then installation descending
    (newer wins ties). An installed entry is one {!Flow_entry.t}
    record, which holds the flow-mod's rule by reference beside the
    table's own fields. Five-tuple-shaped entries (layer 2 and ingress
    port wildcarded, /32 addresses, protocol and both ports given) live
    in intrusive chains: each entry links to the next one of its
    chain, and the chains hang from a power-of-two array indexed by the
    5-tuple's hash, which is taken from the fields' ints without
    building a key. Each chain is kept in table order, and the array
    doubles once the chained entries outnumber its cells twice over.
    Every other entry lives in the wildcard band, a growable array kept
    in table order. Timed entries sit in a min-heap of deadline lower
    bounds; removal leaves a dead entry in the heap, and the heap is
    rebuilt once dead entries outnumber live ones (amortised O(1) per
    removal). Costs below are for [n] entries, [c] entries in one chain
    (at most 2 on average), [w] wildcard entries and [r] wildcard
    entries of one priority. *)

open Netcore

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of entries (default unbounded).
    Inserting into a full table evicts the least-recently-hit reactive
    entry, one whose cookie is 0 (ties go to the entry first in table
    order), an O(n) scan. An entry with a cookie is never evicted: when
    no reactive entry is left, the add is refused and counted (see
    {!refusals}), as an OpenFlow switch answers [ALL_TABLES_FULL]. *)

val add : t -> now:Sim.Time.t -> Flow_entry.rule -> unit
(** Install [rule] as an entry installed (and last hit) at [now]. An
    entry with identical fields and priority replaces the old one
    (OpenFlow overlap semantics for identical matches). O(c + log n)
    for a five-tuple-shaped rule; otherwise an O(log w + r) position
    search plus a memmove of the band's tail. Either way it allocates
    only the entry's 9-word record, which keeps [rule] itself, and,
    amortised, the growth of the chain array, the band and the expiry
    heap; O(n) more when a full table must evict. *)

val lookup : t -> in_port:int -> Packet.t -> Flow_entry.t option
(** Highest-priority matching entry; ties broken by most recent
    installation. Does not update counters — callers decide (see
    {!Switch}). The packet's fields are read where they sit. O(c)
    plus a scan of the wildcards in table order that stops at the first
    one the chain's match outranks (at once when no wildcard ranks as
    high; O(w) when the chain has no match). It allocates only the
    result's option. *)

val miss : Flow_entry.t
(** What {!lookup_flow} returns when no entry matches: an entry no
    table holds, told apart by [==]. *)

val lookup_flow : t -> in_port:int -> Packet.t -> Flow_entry.t
(** {!lookup} with {!miss} for [None] and the entry itself for [Some]:
    the chain is found by the hash of the packet's 5-tuple taken from
    its fields ({!Five_tuple.hash_ints}) and every match test reads the
    packet ({!Match_fields.matches_flow}), so a lookup allocates
    nothing. *)

val remove : t -> priority:int -> fields:Match_fields.t -> unit
(** Strict delete (OpenFlow [DELETE_STRICT]): removes the entry whose
    fields equal [fields] and whose priority is [priority]; there is at
    most one, since {!add} replaces an identical one. An entry with the
    same fields at another priority stays. O(c) for five-tuple-shaped
    [fields]; otherwise an O(log w + r) search of that priority's run
    plus a memmove of the band's tail. Allocates nothing. *)

val remove_matching : t -> fields:Match_fields.t -> unit
(** Wildcard delete: removes entries covered by [fields] (OpenFlow
    DELETE semantics). O(n) plus the length of the chain array.
    Allocates nothing. *)

val expire : t -> now:Sim.Time.t -> int
(** Drop timed-out entries; returns how many were evicted. O(1) when
    nothing is due; otherwise O(c + log n) per entry whose deadline
    bound has passed (a hit entry is pushed back at its true deadline),
    plus O(log w + r) to find an expired wildcard in the band.
    Allocates nothing. *)

val entries : t -> Flow_entry.t list
(** All live entries in table order. O(n log n): sorted on demand. *)

val size : t -> int
(** O(1). *)

val misses : t -> int
(** Cumulative lookup misses. *)

val hits : t -> int

val evictions : t -> int
(** Cumulative capacity evictions (least-recently-hit reactive entries
    dropped to make room; timeout expiry is not counted here). *)

val refusals : t -> int
(** Cumulative adds refused because the table was full and held no
    reactive entry to evict. *)

val set_on_evict : t -> (Flow_entry.t -> unit) -> unit
(** Observe capacity evictions, called with each victim after removal. *)
