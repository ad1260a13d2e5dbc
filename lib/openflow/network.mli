(** The simulated fabric: wires {!Switch} instances, host endpoints, and
    controller callbacks together over the {!Sim.Engine} event loop.
    Packets experience link latency; control-channel messages experience
    a configurable controller RTT contribution. Supports multiple
    controller domains (each switch belongs to one controller), which is
    how §4's "network collaboration" between branches is modelled. *)

open Netcore

type t

val create :
  ?ctrl_latency:Sim.Time.t ->
  ?table_capacity:int ->
  engine:Sim.Engine.t ->
  topology:Topology.t ->
  unit ->
  t
(** Builds a switch instance for every switch in the topology. Ports are
    taken from the topology wiring. [ctrl_latency] is the one-way
    switch-to-controller delay (default 50us). [table_capacity] bounds
    every switch's flow table (default unbounded); a full table evicts
    its least-recently-hit entry, modelling a small TCAM. *)

val engine : t -> Sim.Engine.t
val topology : t -> Topology.t
val switch : t -> Message.switch_id -> Switch.t
(** @raise Not_found for an unknown dpid. *)

val trace : t -> Sim.Trace.t
(** Every packet and control event is recorded here. *)

(** {2 Controllers} *)

type controller_id = int

val register_controller :
  t -> id:controller_id -> (Message.to_controller -> unit) -> unit
(** Install a controller callback. Re-registering replaces it. *)

val assign_switch : t -> Message.switch_id -> controller_id -> unit
(** Place a switch in a controller's domain (default: controller 0). *)

val switches_in_domain : t -> controller_id -> Message.switch_id list
(** All switches assigned to the controller (including by default). *)

val send_to_switch : t -> Message.switch_id -> Message.to_switch -> unit
(** Controller-to-switch message, delivered after the control latency. *)

(** {2 Hosts} *)

val attach_host :
  t -> name:string -> mac:Mac.t -> ip:Ipv4.t -> rx:(Packet.t -> unit) -> unit
(** Bind a receive callback for a host present in the topology.
    @raise Invalid_argument if the host has no attachment link. *)

val host_mac : t -> string -> Mac.t
val host_ip : t -> string -> Ipv4.t
val host_by_ip : t -> Ipv4.t -> string option
(** The host attached with this address, from an index kept by
    {!attach_host}: O(1). Re-attaching a host under a new address drops
    its old one. *)

val send_from_host : t -> name:string -> Packet.t -> unit
(** Inject a packet at a host's NIC; it reaches the edge switch after
    the access-link latency. *)

(** {2 Fault injection} *)

val set_loss : t -> ?prng:Sim.Prng.t -> rate:float -> unit -> unit
(** Drop each emitted frame independently with probability [rate]
    (0 disables). Control-channel messages are not affected — only
    frames on links, including the ident++ exchange, which is how query
    loss and the resulting fail-closed timeouts are exercised. *)

(** {2 Capture} *)

val set_capture : t -> Netcore.Pcap.writer option -> unit
(** When set, every frame emitted onto any link is appended to the pcap
    writer with the current simulated timestamp. *)

(** {2 Accounting} *)

val delivered : t -> int
(** Packets handed to host receive callbacks. *)

val dropped : t -> int
val packet_ins : t -> int
val egress_packets : t -> node:Topology.node -> port:int -> int
(** Packets emitted by [node] out of [port] (for per-link accounting). *)

val egress_bytes : t -> node:Topology.node -> port:int -> int
