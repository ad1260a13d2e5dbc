(** A simulation trace: timestamped, categorised event records, used by
    the netsim binary to print Figure-1-style sequences and by tests to
    assert on event ordering. A trace keeps every entry it records
    (it is unbounded), so it is off until a reader turns it on. *)

type entry = { at : Time.t; actor : string; event : string }
type t

val create : unit -> t
(** A new, empty, disabled trace. *)

val record : t -> at:Time.t -> actor:string -> string -> unit
(** No-op while recording is disabled. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** Tracing is off by default; each reader enables it before the
    events it wants to see. Callers on hot paths should check {!enabled}
    before formatting an event string, so a disabled trace costs
    nothing. *)

val entries : t -> entry list
(** In recording order. *)

val pp : Format.formatter -> t -> unit
