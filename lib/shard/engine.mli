(** N deterministic shard run queues multiplexed onto one
    {!Sim.Engine} heap — the concurrency model for the sharded
    controller (DESIGN.md §12).

    Each shard is modelled as a sim process with its own mailbox:
    {!post} enqueues a message and schedules its execution at
    [max(now, busy_until)], advancing the shard's [busy_until] by the
    per-message {!service} time. Two regimes fall out:

    - [service = 0] (default): every message executes at the simulated
      instant it was posted, in global post order (the sim heap is
      FIFO among simultaneous events) — behaviour, audit trail, and
      metrics are byte-identical under {e any} shard count. This is
      the regime netsim and the determinism oracle run in.
    - [service > 0]: each shard serialises its own messages while
      distinct shards advance in parallel simulated time, modelling N
      controller cores; the burst makespan shrinks near-linearly in
      shard count (the [setup/concurrent-burst] bench). *)

type t

val create : ?service:Sim.Time.t -> shards:int -> Sim.Engine.t -> t
(** [service] is the simulated per-message processing cost (default
    {!Sim.Time.zero}).
    @raise Invalid_argument when [shards < 1]. *)

val shard_count : t -> int
val service : t -> Sim.Time.t

val shard_of_flow : t -> Netcore.Five_tuple.t -> int
(** The owning shard for a flow: [Five_tuple.hash mod shard_count].
    Deterministic, direction-sensitive — a daemon response is routed
    to the owner by hashing the flow it names. *)

val current : t -> int option
(** The shard whose message is executing right now, if any — lets
    reentrant posts count as cross-shard traffic. *)

val post : t -> shard:int -> (unit -> unit) -> unit
(** Append a message to the shard's mailbox. It runs at
    [max(now, busy_until)]; messages posted to one shard run in post
    order. *)

val post_after :
  t -> shard:int -> delay:Sim.Time.t -> (unit -> unit) -> Sim.Engine.cancel
(** A cancellable timer that {e posts} into the shard's mailbox when it
    fires (so timeout handling also serialises with the shard's other
    work). Cancelling after the fire is a no-op as usual. *)

val broadcast : t -> (int -> unit) -> unit
(** Deliver a control message to every shard, in shard order, executing
    immediately — the propagation path for shared state (policy
    epochs, proactive sync, breaker trips, host changes). Synchronous
    delivery in a fixed order keeps runs reproducible under any shard
    count; each delivery to a foreign shard counts as a cross-shard
    message. *)

val queue_depth : t -> int -> int
(** Messages posted to the shard but not yet drained. *)

val posted : t -> int
val processed : t -> int
val cross_messages : t -> int

val makespan : t -> Sim.Time.t
(** The largest [busy_until] across shards — with [service > 0], the
    simulated completion time of all posted work; the quantity the
    concurrent-burst bench divides flow count by. *)

val register_metrics : t -> ?labels:Obs.Registry.labels -> Obs.Registry.t -> unit
(** Registers [identxx_shard_queue_depth] and
    [identxx_shard_messages_total] per shard (label [shard]) and the
    global [identxx_shard_cross_messages_total], on top of [labels]. *)
