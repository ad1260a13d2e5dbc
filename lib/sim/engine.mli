(** The discrete-event simulation engine. Events are data: each layer
    extends {!event} with its own cases, each case holding its payload
    inline, and registers one dispatcher that runs them. Running the
    engine dispatches events in time order, FIFO among simultaneous
    events, and advances the clock.

    Every event travels on a {!channel}. A channel is the unit of FIFO
    order: two events on one channel at one instant are the same stream
    in the modelled system, so they must run in the order they were
    scheduled, while events on different channels at one instant could
    have raced. The engine dispatches FIFO across all channels; a seeded
    tie order may permute across channels, never within one. *)

type t

type event = ..
(** A scheduled event. A layer adds its cases with
    [type Sim.Engine.event += ...] and {!register}s their dispatcher. *)

type event += Thunk of (unit -> unit)
(** A closure to run: the closure API ({!schedule}, {!schedule_at}),
    kept for callers outside [lib/]. Its channel is [Timer]. *)

type channel =
  | Link of { node : string; port : int }
      (** Frames toward port [port] of node [node]: one direction of a
          link, named by its receiving end. *)
  | Switch_to_controller of int
      (** A switch's messages to its controller, by dpid. *)
  | Controller_to_switch of int
      (** A controller's messages to a switch, by dpid. *)
  | Mailbox of int  (** A shard's mailbox, by shard index. *)
  | Timer
      (** What the program schedules for itself: thunks, timeouts, the
          install batcher's end-of-tick flush. *)

(** What a dispatcher did with an event. *)
type outcome =
  | Ran  (** The event was the layer's, and it ran. *)
  | Reaped
      (** The event was the layer's, and it had been cancelled: nothing
          ran, and the clock stays where it was. *)
  | Unknown  (** Not one of the layer's cases. *)

val register :
  run:(event -> outcome) -> channel:(event -> channel option) -> unit
(** Add a layer's dispatcher. [run] runs the layer's cases and answers
    [Unknown] for any other; [channel] names the channel of each of the
    layer's cases and answers [None] for any other. Layers register
    once, when their module is initialised. *)

val create : unit -> t

val now : t -> Time.t
(** Current simulated time. *)

val schedule_event : t -> delay:Time.t -> event -> unit
(** Dispatch [event] [delay] after the current time. Allocates nothing
    beyond the queue's amortised growth: the event is the caller's. *)

val schedule_event_at : t -> at:Time.t -> event -> unit
(** Dispatch [event] at an absolute time (>= now).
    @raise Invalid_argument when [at] is in the past. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> unit
(** Run a closure [delay] after the current time, as a {!Thunk}. *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> unit
(** Run a closure at an absolute time (>= now), as a {!Thunk}.
    @raise Invalid_argument when [at] is in the past. *)

val next_channel : t -> channel option
(** The channel its layer names for the event {!step} dispatches next;
    [None] when the queue is empty.
    @raise Invalid_argument when no registered layer knows the event. *)

val pending : t -> int
(** Number of events still queued (including cancelled ones not yet
    reaped). *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Drain the queue. Stops when empty, when simulated time would exceed
    [until], or after [max_events] dispatches. *)

val step : t -> bool
(** Dispatch exactly one event; false when the queue is empty. *)
