(** A mutable binary min-heap keyed by integer priorities, with FIFO
    tie-breaking (insertion order decides between equal keys). A value
    taken out is no longer referenced by the heap, so an event queue
    does not keep a dispatched event's captures alive. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
val push : 'a t -> key:int -> 'a -> unit

val min_key : 'a t -> int
(** The smallest key, read in place: no allocation, nothing removed.
    @raise Invalid_argument when the heap is empty. *)

val take : 'a t -> 'a
(** Remove the smallest-key entry and return its value, without
    allocating; equal keys come out in insertion order.
    @raise Invalid_argument when the heap is empty. *)

val pop : 'a t -> (int * 'a) option
(** Smallest key; equal keys come out in insertion order. *)

val clear : 'a t -> unit
