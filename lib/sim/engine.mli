(** The discrete-event simulation engine. Events are closures scheduled
    at absolute simulated times; running the engine executes them in
    time order (FIFO among simultaneous events) and advances the clock. *)

type t

val create : unit -> t

val now : t -> Time.t
(** Current simulated time. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> unit
(** Run a closure [delay] after the current time. *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> unit
(** Run a closure at an absolute time (>= now).
    @raise Invalid_argument when [at] is in the past. *)

type cancel
(** Handle for a cancellable event. *)

val schedule_cancellable : t -> delay:Time.t -> (unit -> unit) -> cancel
val cancel : cancel -> unit
(** Cancelling an already-fired or cancelled event is a no-op. *)

val cancelled : cancel
(** A handle to no event, as if already cancelled: a placeholder until
    a real timer is armed. *)

val pending : t -> int
(** Number of events still queued (including cancelled ones not yet
    reaped). *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Drain the queue. Stops when empty, when simulated time would exceed
    [until], or after [max_events] dispatches. *)

val step : t -> bool
(** Dispatch exactly one event; false when the queue is empty. *)
