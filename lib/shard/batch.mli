(** The per-tick install batcher. In the controller, flow-mod
    installs and packet releases produced while one simulated instant
    drains are not sent switch-by-switch as they occur: they accumulate
    here and flush as {e one batched install pass per switch} at the
    end of the tick (a zero-delay event, which the FIFO sim heap places
    after every message already queued for this instant).

    Ordering guarantees, both load-bearing:
    - per-switch arrival order is preserved — the control channel is
      FIFO and packet release relies on flow-mods landing first;
    - switch groups flush in ascending dpid order — one canonical pass
      regardless of which shard queued which message, so traces stay
      byte-identical across shard counts. *)

type t

val create :
  engine:Sim.Engine.t ->
  send:(Openflow.Message.switch_id -> Openflow.Message.to_switch array -> unit) ->
  unit -> t
(** [send] delivers one switch's messages of a flush, in arrival order,
    as one control event ({!Openflow.Network.send_batch}); the array is
    the callee's. It must not call {!add} on the same batcher. *)

val add : t -> Openflow.Message.switch_id -> Openflow.Message.to_switch -> unit
(** Queue a message for the tick's pass; the first [add] of a tick
    schedules the flush. *)

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
