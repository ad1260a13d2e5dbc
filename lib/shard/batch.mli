(** The controller's one outbox. Everything it sends a switch (a flow's
    installs, releases and queries, a sync, a flush, a revocation, a
    stats request) accumulates while one simulated instant drains and
    flushes as {e one control event per switch} at the end of the tick
    (a zero-delay event, which the FIFO sim heap places after every
    message already queued for this instant).

    Ordering guarantees, both load-bearing:
    - per-switch arrival order is preserved — the control channel is
      FIFO, packet release relies on flow-mods landing first, and a
      flush deletes the installs queued before it;
    - switch groups flush in ascending dpid order — one canonical pass
      regardless of which shard queued which message, so traces stay
      byte-identical across shard counts.

    {!add_all}'s array is sent whole, uncopied, while nothing else is
    queued for its switch this tick, so a sync's one array serves every
    switch. A second array is appended to it; an {!add} after it copies
    it into the switch's group. *)

type t

val create :
  engine:Sim.Engine.t ->
  send:(Openflow.Message.switch_id -> Openflow.Message.to_switch array -> unit) ->
  unit -> t
(** [send] delivers one switch's messages of a flush, in arrival order,
    as one control event ({!Openflow.Network.send_batch}); the array is
    the callee's to keep but not to change, since other switches may be
    sent the same one. It must not call {!add} on the same batcher. *)

val add : t -> Openflow.Message.switch_id -> Openflow.Message.to_switch -> unit
(** Queue a message for the tick's pass; the first [add] of a tick
    schedules the flush. *)

val add_all : t -> Openflow.Message.switch_id -> Openflow.Message.to_switch array -> unit
(** Queue a switch's messages for the tick's pass, in order, as {!add}
    of each would; the array must not change afterwards. *)

val pending : t -> int
(** Messages queued for the current tick. *)

val flushes : t -> int
(** Passes flushed (cumulative). *)

val batched : t -> int
(** Messages delivered through the batcher (cumulative). *)

val register_metrics : t -> ?labels:Obs.Registry.labels -> Obs.Registry.t -> unit
(** Registers [identxx_shard_batch_size] (messages per switch per
    pass), [identxx_shard_batch_flushes_total], and
    [identxx_shard_batch_messages_total]. *)
