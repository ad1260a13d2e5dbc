(** The OpenFlow switch model: two flow tables plus the table-miss rule
    "encapsulate and send to the controller" (§3.1). A lookup starts in
    table 0; an entry whose only action is [Goto_table 1] continues it
    in table 1, as OpenFlow 1.1's goto-table instruction does (a goto
    to an earlier table forwards nowhere). A miss in either table
    punts. *)

open Netcore

type t

val create : ?capacity:int -> dpid:Message.switch_id -> ports:int list -> unit -> t
(** [ports] are the switch's physical port numbers. [capacity] bounds
    table 0 (default unbounded), modelling a small TCAM: a full table
    evicts its least-recently-hit reactive entry on insert (see
    {!Flow_table.create}). Table 1 is unbounded. *)

val table : ?id:int -> t -> Flow_table.t
(** Table [id], 0 (the default) or 1. *)

type forward_decision =
  | Forward of int list  (** Concrete output ports (flood resolved). *)
  | Send_to_controller
  | Dropped

val process :
  t -> now:Sim.Time.t -> in_port:int -> Packet.t -> forward_decision
(** Run a packet through the flow tables: on a hit, update the entry's
    counters and follow its goto or resolve its actions to ports; on a
    miss, the OpenFlow default of sending to the controller. The
    packet's 5-tuple is derived once for every table it visits. *)

type apply_result =
  | Nothing
  | Emit of int list * Packet.t  (** Ports to emit the packet on. *)
  | Reply of Message.to_controller  (** Response on the control channel. *)

val apply : t -> now:Sim.Time.t -> Message.to_switch -> apply_result
(** Apply a controller message. [Flow_mod] mutates the table its
    [table_id] names;
    [Packet_out] resolves [`Flood]/[`Table] to concrete ports;
    [Stats_request] snapshots table 0 into a [Stats_reply]. *)
