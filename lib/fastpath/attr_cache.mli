(** TTL'd cache of listening sockets' daemon responses.

    The Figure-1 exchange asks end-hosts the same questions for every
    table-miss flow. A listening socket's answer holds beyond its flow:
    its owner is the same for every new flow to its port. The daemon
    says so in its signed scope list ({!Identxx.Signed.scope}), and only
    a destination's answer whose narrowest scope is [Socket] or [Host]
    is kept, keyed on the host, the proto and the destination port. A
    [Flow] answer (every unsigned one, every connected socket's) is
    never kept, nor is a source's: either could serve only its own flow
    missing again.

    Every key also holds the query's hint list: a daemon leaves out what
    was not asked for. Entries are dropped the moment the daemon reports
    a change (login/logout, process exit, a listener re-bound; see
    {!Identxx.Daemon.on_change}) and never outlive their TTL.

    A response can bound its own reuse: a [expires] key whose value
    parses as a number of seconds caps the entry's lifetime below the
    configured TTL (the signed-section analogue of a certificate
    lifetime — a signer unwilling to vouch for stale attributes sets it
    small). *)

open Netcore

type t

val create : ?capacity:int -> ttl:Sim.Time.t -> unit -> t
(** [capacity] bounds the entry count (FIFO eviction, default 4096).
    The FIFO order queue stays within twice the capacity however many
    entries leave by expiry or invalidation. *)

val expires_key : string
(** ["expires"] — the response key read for the self-imposed lifetime
    bound, in (possibly fractional) seconds. *)

val hint_key : string list -> string
(** The canonical form of a query's hint list (sorted, duplicates
    dropped, comma-joined): the [hints] argument below, computed once
    per hint list. *)

val store :
  t ->
  now:Sim.Time.t ->
  hints:string ->
  scope:Identxx.Signed.scope ->
  flow:Five_tuple.t ->
  ?signer:string ->
  Identxx.Response.t ->
  unit
(** Cache [response], the answer [flow]'s destination gave to a query
    hinting [hints] ({!hint_key}), when [scope], the answer's narrowest
    declared scope, reaches beyond the flow; for [Flow], do nothing.
    [signer] is the response's authenticating principal, if any; a later
    {!invalidate_signer} with the same handle drops the entry. *)

val find :
  t ->
  now:Sim.Time.t ->
  hints:string ->
  flow:Five_tuple.t ->
  Identxx.Response.t option
(** The live entry of the socket [flow]'s destination end reaches,
    regardless of signer; an expired one is dropped on the way. Counts
    a hit or a miss. *)

val invalidate_host : t -> Ipv4.t -> int
(** Drop every entry for the host (a daemon-side change event); returns
    the number dropped. *)

val invalidate_signer : t -> string -> int
(** Drop every entry authenticated by the signer (key revocation). *)

val size : t -> int
val clear : t -> unit

(** {2 Counters} *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
(** Capacity evictions only (not TTL expiries). *)

val invalidations : t -> int
(** Entries dropped by {!invalidate_host}/{!invalidate_signer}. *)
