(** Memoized policy verdicts, keyed by (flow class, the answer values
    the policy reads; see [Fastpath.decision_key]).

    Two flows whose keys are equal receive the identical verdict from
    {!Pf.Eval}, so the controller can replay a cached verdict instead of
    re-walking the ruleset, under the policy that decided it: the
    controller clears the cache ({!clear}) as it installs each revision.

    The cache also remembers which hosts each entry's flow touched, so
    revoking a principal ({!purge_ip}) removes every decision that could
    have been influenced by it. *)

open Netcore

type t

val create : ?capacity:int -> unit -> t
(** FIFO-bounded (default 16384 entries). The FIFO order queue stays
    within twice the capacity however many entries are purged. *)

val find : t -> key:string -> Pf.Eval.verdict option
(** Counts a hit or a miss. *)

val store : t -> key:string -> flow:Five_tuple.t -> Pf.Eval.verdict -> unit

val purge_ip : t -> Ipv4.t -> int
(** Drop every entry whose flow involved the address; returns the
    number dropped. *)

val size : t -> int
val clear : t -> unit

(** {2 Counters} *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
(** Capacity evictions; clears and purges are not counted. *)
