(** A mutable binary min-heap keyed by integer priorities, with FIFO
    tie-breaking (insertion order decides between equal keys).

    The heap is a struct of arrays: keys and insertion numbers sit in
    two [int array]s and values in a third, so an entry is no block of
    its own. {!push} and {!take} allocate nothing beyond the arrays'
    amortised growth. A value taken out is replaced by the filler given
    to {!create}, so an event queue does not keep a dispatched event's
    captures alive. *)

type 'a t

val create : 'a -> 'a t
(** [create filler] is an empty heap whose unused value cells hold
    [filler]. The filler is never returned. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> key:int -> 'a -> unit
(** Allocates nothing unless the arrays must grow. *)

val min_key : 'a t -> int
(** The smallest key, read in place: no allocation, nothing removed.
    @raise Invalid_argument when the heap is empty. *)

val min_value : 'a t -> 'a
(** The value {!take} would return, left in place.
    @raise Invalid_argument when the heap is empty. *)

val take : 'a t -> 'a
(** Remove the smallest-key entry and return its value, without
    allocating; equal keys come out in insertion order.
    @raise Invalid_argument when the heap is empty. *)

val pop : 'a t -> (int * 'a) option
(** Smallest key; equal keys come out in insertion order. *)

val clear : 'a t -> unit
(** Empty the heap. It keeps its arrays, so refilling it to its former
    size allocates nothing. *)
