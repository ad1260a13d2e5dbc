(** Per-host circuit breaker for silent (non-ident++) end-hosts.

    §4 of the paper expects unmodified hosts: their daemons never
    answer, and policy must decide with absent responses. Without help
    the controller burns the full query timeout (plus retries) on
    {e every} flow from such a host. The breaker notices the pattern —
    [threshold] consecutive timeouts — and then treats the host as
    non-ident++ for a [backoff] window: flows decide immediately with an
    absent response, exactly the fallback the paper prescribes. When the
    window expires the next flow probes the host again (the daemon may
    have been installed, rebooted, or un-firewalled in the meantime); a
    response closes the breaker, another timeout re-opens it. *)

open Netcore

type t

val create : ?threshold:int -> ?backoff:Sim.Time.t -> unit -> t
(** Default: 3 consecutive timeouts trip the breaker for 30 simulated
    seconds. *)

val consult : t -> now:Sim.Time.t -> Ipv4.t -> [ `Ask | `Absent | `Probe ]
(** What to do about a query for [host]:
    - [`Ask]: no evidence of silence — query normally.
    - [`Absent]: breaker open — decide now with an absent response.
    - [`Probe]: the backoff window expired — send one probe query
      (until it resolves, other flows keep getting [`Absent]). *)

val note_timeout : t -> now:Sim.Time.t -> Ipv4.t -> unit
(** The host failed to answer within the query timeout (after any
    retries). Trips the breaker at [threshold] consecutive timeouts;
    a failed probe re-opens immediately. *)

val note_response : t -> Ipv4.t -> unit
(** The host answered: close the breaker and forget its history. *)

type state = Closed | Open_until of Sim.Time.t | Probing

val state : t -> Ipv4.t -> state

val trips : t -> int
(** Closed-to-open transitions (including probe failures). *)

val fastpaths : t -> int
(** [`Absent] verdicts served. *)

val tracked : t -> int
