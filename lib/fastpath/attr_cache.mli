(** TTL'd cache of daemon responses, keyed by (host, query-key set,
    signer).

    The Figure-1 exchange asks both end-hosts the same questions for
    every table-miss flow. Host attributes (who is logged in, which
    applications run, the administrator's host-wide pairs) change far
    more slowly than flows arrive, so the controller may reuse a recent
    answer instead of re-querying — provided the entry is dropped the
    moment the daemon reports a change (login/logout, process exit; see
    {!Identxx.Daemon.on_change}) and never outlives its TTL.

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

val store :
  t ->
  now:Sim.Time.t ->
  host:Ipv4.t ->
  keys:string list ->
  ?signer:string ->
  Identxx.Response.t ->
  unit
(** Cache [response] as the answer [host] gives to a query hinting
    [keys] (order-insensitive). [signer] is the response's
    authenticating principal, if any; a later {!invalidate_signer} with
    the same handle drops the entry. *)

val find :
  t -> now:Sim.Time.t -> host:Ipv4.t -> keys:string list ->
  Identxx.Response.t option
(** A live entry for this host and key set, regardless of signer.
    Expired entries are dropped on the way. Counts a hit or a miss. *)

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
