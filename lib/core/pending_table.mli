(** The controller's pending flows by 5-tuple, in intrusive chains
    (DESIGN.md §12).

    Each entry carries its own chain link, so adding one allocates no
    bucket cell. Chains hang from the cell the flow's
    {!Netcore.Five_tuple.hash} selects, as [Openflow.Flow_table]'s
    exact-match chains do, and the cells double once they hold more than
    two entries each. A probe compares each chained flow's fields with
    its own where they sit: a lookup by an answer's addresses and echoed
    ports builds no key, and a lookup that finds nothing returns the
    entry type's [vacant] instead of an option. *)

open Netcore

module type ENTRY = sig
  type t

  val vacant : t
  (** Ends every chain, and is what a probe that finds nothing returns.
      Never added. *)

  val flow : t -> Five_tuple.t
  val next : t -> t
  val set_next : t -> t -> unit
end

module type S = sig
  type entry
  type t

  val create : int -> t
  (** An empty table of at least [n] cells, rounded up to a power of
      two. *)

  val length : t -> int

  val add : t -> entry -> unit
  (** Link the entry in. No entry of its flow may be in the table. *)

  val remove : t -> entry -> unit
  (** Unlink the entry itself; a no-op when it is not in the table. *)

  val find : t -> Five_tuple.t -> entry
  (** The entry of the flow; [vacant] when there is none. *)

  val probe :
    t ->
    src:Ipv4.t ->
    dst:Ipv4.t ->
    proto:Proto.t ->
    src_port:int ->
    dst_port:int ->
    entry
  (** {!find} of the flow with these fields, without building it.
      Allocates nothing. *)
end

module Make (E : ENTRY) : S with type entry = E.t
