(** N deterministic shard run queues multiplexed onto one
    {!Sim.Engine} heap — the concurrency model of every controller's
    flow setup (DESIGN.md §12). A shard is only a run queue: the
    messages posted to it act on state their poster owns, so no shard
    has state to share or propagate.

    Each shard is modelled as a sim process with its own mailbox, a
    channel of its own ({!Sim.Engine.Mailbox}): {!post} enqueues a
    message and schedules its execution at
    [max(now, busy_until)], advancing the shard's [busy_until] by the
    per-message service time. Two regimes fall out:

    - [service = 0] (default): every message executes at the simulated
      instant it was posted, in global post order (the sim heap is
      FIFO among simultaneous events) — behaviour, audit trail, and
      metrics are byte-identical under {e any} shard count. This is
      the regime netsim and the determinism oracle run in.
    - [service > 0]: each shard serialises its own messages while
      distinct shards advance in parallel simulated time, modelling N
      controller cores; the burst makespan shrinks near-linearly in
      shard count (the [setup/concurrent-burst] bench). *)

type 'm t
(** Shards whose mailboxes hold messages of type ['m]. *)

val create_typed :
  ?service:Sim.Time.t ->
  shards:int ->
  vacant:'m ->
  handle:('m -> unit) ->
  Sim.Engine.t ->
  'm t
(** Shards whose messages are data: a drained message runs as [handle
    msg], on its shard. [vacant] fills a mailbox's free slots, so a
    drained message is not kept alive; it is never handled. [service]
    is the simulated per-message processing cost (default
    {!Sim.Time.zero}).
    @raise Invalid_argument when [shards < 1]. *)

val shards : 'm t -> int
(** The number of run queues. *)

val shard_of_flow : 'm t -> Netcore.Five_tuple.t -> int
(** The owning shard for a flow: [Five_tuple.hash mod shard_count].
    Deterministic, direction-sensitive — a daemon response is routed
    to the owner by hashing the flow it names. *)

val post : 'm t -> shard:int -> 'm -> unit
(** Append a message to the shard's mailbox. It runs at
    [max(now, busy_until)]; messages posted to one shard run in post
    order. Allocates nothing but the mailbox's amortised growth: each
    shard's drain event is built once. *)

type timer
(** A cancellable timer armed by {!post_after}. *)

val post_after : 'm t -> shard:int -> delay:Sim.Time.t -> 'm -> timer
(** A cancellable timer that {e posts} the message into the shard's
    mailbox when it fires (so timeout handling also serialises with the
    shard's other work). The timer is one event holding the message and
    its cancelled flag. *)

val cancel : timer -> unit
(** Cancelling an already-fired or cancelled timer is a no-op. *)

val no_timer : timer
(** A handle to no timer, as if already cancelled: a placeholder until
    a real timer is armed. *)

val queue_depth : 'm t -> int -> int
(** Messages posted to the shard but not yet drained. *)

val posted : 'm t -> int
val processed : 'm t -> int
val cross_messages : 'm t -> int

val makespan : 'm t -> Sim.Time.t
(** The largest [busy_until] across shards — with [service > 0], the
    simulated completion time of all posted work; the quantity the
    concurrent-burst bench divides flow count by. *)

val register_metrics : 'm t -> ?labels:Obs.Registry.labels -> Obs.Registry.t -> unit
(** Registers [identxx_shard_queue_depth] and
    [identxx_shard_messages_total] per shard (label [shard]) and the
    global [identxx_shard_cross_messages_total] (posts made while one
    shard runs to another shard), on top of [labels]. *)
