(** A map bounded by a capacity, the oldest entry out first: the one
    eviction policy of the controller's caches (the decision cache, the
    settled answers, the keystore's verified sections and [allowed()]'s
    memo; DESIGN.md §9).

    Each key is queued in [order] when it enters. While the map is full,
    an [add] of a new key pops the oldest queued key and removes that key
    if it is still held. [remove] and [filter_inplace] leave their keys
    queued, so a key that left and entered again is queued twice, and
    the older place evicts it. Nothing pops a key while the map stays
    under its capacity, so past twice the capacity an [add] keeps only
    each held key's first place, the place that evicts it (amortised
    O(1) per add): the queue never holds more than [2 * capacity + 1]
    keys, however many entries leave. *)

module Make (H : Hashtbl.HashedType) : sig
  type key = H.t
  type 'a table

  type 'a t = private {
    capacity : int;
    table : 'a table;
    order : key Queue.t;
        (** Each key as it entered, oldest first, held or not. *)
    mutable evictions : int;
        (** Entries {!add} removed to make room; removals and clears
            are not counted. *)
  }

  val create : capacity:int -> int -> 'a t
  (** [create ~capacity n]: an empty map holding at most [capacity]
      entries, its table sized for [n].
      @raise Invalid_argument when [capacity < 1]. *)

  val find : 'a t -> key -> 'a
  (** Allocates nothing. @raise Not_found when the key is not held. *)

  val add : 'a t -> key -> 'a -> unit
  (** Bind the key, replacing its value when it is held, which keeps its
      place; otherwise it is queued last, after the oldest entries are
      evicted until there is room. *)

  val remove : 'a t -> key -> unit

  val filter_inplace : (key -> 'a -> bool) -> 'a t -> unit
  (** Keep the entries the predicate accepts. *)

  val clear : 'a t -> unit
  val length : 'a t -> int
end
