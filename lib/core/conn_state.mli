(** Connection state for [keep state] rules: remembering approved flows
    so reply traffic passes without re-consulting policy, with idle
    expiry. *)

open Netcore

type t

val create : ?idle_timeout:Sim.Time.t -> unit -> t
(** Default idle timeout: 60 simulated seconds. *)

val note : t -> now:Sim.Time.t -> Five_tuple.t -> unit
(** Record an approved stateful flow. Once the table has doubled since
    the last sweep (and holds at least 128 entries), this also
    {!expire}s, so the table holds at most twice the flows still inside
    the idle timeout (or 128), however many it has passed. *)

val permits : t -> now:Sim.Time.t -> Five_tuple.t -> bool
(** True for a recorded flow or the exact reverse of one (the state
    entry admits replies). Refreshes the entry's idle timer on hit. *)

val revoke : t -> ip:Ipv4.t -> int
(** Drop every state entry whose flow has [ip] as either endpoint
    (principal revocation: replies must re-consult policy too); returns
    the number dropped. *)

val size : t -> int

val expire : t -> now:Sim.Time.t -> int
(** Drop every entry idle longer than the timeout; returns the number
    dropped. {!permits} already treats such an entry as absent. *)

val clear : t -> unit
