(** A switch's flow table: priority-ordered wildcard matching with an
    exact-match fast path, per OpenFlow 1.0 semantics.

    Table order is priority descending, then installation descending
    (newer wins ties). Five-tuple-shaped entries (layer 2 and ingress
    port wildcarded, /32 addresses, protocol and both ports given) live
    in per-tuple buckets of a hash table; every other entry lives in one
    ordered wildcard list. Timed entries sit in a min-heap of deadline
    lower bounds; removal leaves a dead heap slot behind, and the heap
    is rebuilt once dead slots outnumber live ones (amortised O(1) per
    removal). Costs below are for [n] entries, [b] entries in one
    bucket (usually 1) and [w] wildcard entries. *)

open Netcore

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of entries (default unbounded);
    inserting into a full table evicts the least-recently-hit entry
    (ties go to the entry first in table order), an O(n) scan. *)

val add : t -> Flow_entry.t -> unit
(** Install an entry. An entry with identical fields and priority
    replaces the old one (OpenFlow overlap semantics for identical
    matches). O(b + log n) for a five-tuple-shaped entry, O(w + log n)
    otherwise; O(n) more when a full table must evict. *)

val lookup : t -> in_port:int -> Packet.t -> Flow_entry.t option
(** Highest-priority matching entry; ties broken by most recent
    installation. Does not update counters — callers decide (see
    {!Switch}). O(b) plus a scan of the wildcards in table order that
    stops at the first one the bucket's match outranks (at once when
    no wildcard ranks as high; O(w) when the bucket has no match). *)

val remove : t -> fields:Match_fields.t -> unit
(** Strict delete: removes entries whose fields equal [fields].
    O(b) for five-tuple-shaped [fields], O(w) otherwise. *)

val remove_matching : t -> fields:Match_fields.t -> unit
(** Wildcard delete: removes entries covered by [fields] (OpenFlow
    DELETE semantics). O(n). *)

val expire : t -> now:Sim.Time.t -> int
(** Drop timed-out entries; returns how many were evicted. O(1) when
    nothing is due; otherwise O(b + log n) per entry whose deadline
    bound has passed (a hit entry is pushed back at its true deadline). *)

val entries : t -> Flow_entry.t list
(** All live entries in table order. O(n log n): sorted on demand. *)

val size : t -> int
(** O(1). *)

val clear : t -> unit
val misses : t -> int
(** Cumulative lookup misses. *)

val hits : t -> int

val evictions : t -> int
(** Cumulative capacity evictions (least-recently-hit entries dropped
    to make room; timeout expiry is not counted here). *)

val set_on_evict : t -> (Flow_entry.t -> unit) -> unit
(** Observe capacity evictions, called with each victim after removal —
    the controller uses this to flag proactively installed entries
    (recognized by cookie) being pushed out by reactive churn. *)

val pp : Format.formatter -> t -> unit
