(** Glue for standing up ident++-protected simulated networks: attaches
    {!Identxx.Host} end-hosts to an {!Openflow.Network} so their daemons
    answer queries arriving over the fabric, plus a canned Figure-1
    topology used by the quickstart, tests and benchmarks. *)

open Netcore

val attach_host : Openflow.Network.t -> Identxx.Host.t -> unit
(** Wire the host's NIC receive path: ident++ queries delivered to the
    host produce daemon responses sent back into the network; other
    traffic is accepted silently (the simulator measures delivery at the
    network layer). *)

val attach_host_with :
  Openflow.Network.t -> Identxx.Host.t -> rx:(Packet.t -> unit) -> unit
(** Like {!attach_host} but also invokes [rx] on every delivered packet
    (after ident++ processing), for application-level assertions. *)

val watch_host : Controller.t -> Identxx.Host.t -> unit
(** Subscribe the controller's fast path to the host's daemon change
    events ({!Identxx.Daemon.on_change} →
    {!Controller.note_host_changed}), so cached host attributes are
    dropped when what the daemon would answer changes. The canned
    topologies below do this for every host they create. *)

val watch_hosts : Controller.t -> Identxx.Host.t array -> unit

val sign_host : ?seed:string -> Controller.t -> Identxx.Host.t -> Idcrypto.Sign.keypair
(** Give the host's daemon a signing key: generate it (owner
    ["<host name>-host"]), register it in the controller's keystore
    bound to the host's address ({!Idcrypto.Sign.register_for}), and
    install it ({!Identxx.Host.set_signing_key}). Under
    [require_signed_responses] the controller then accepts this key's
    answers from that address only. A key registered with plain
    {!Idcrypto.Sign.register} stays unbound and is accepted from any
    host. *)

type branches = {
  engine : Sim.Engine.t;
  network : Openflow.Network.t;
  branch_a : Controller.t;  (** controller 0, switch 1 *)
  branch_b : Controller.t;  (** controller 1, switch 2 *)
  a1 : Identxx.Host.t;  (** 10.10.0.1, on s1 port 1 *)
  b1 : Identxx.Host.t;  (** 10.20.0.1, on s2 port 1 *)
}

type simple = {
  engine : Sim.Engine.t;
  topology : Openflow.Topology.t;
  network : Openflow.Network.t;
  controller : Controller.t;
  client : Identxx.Host.t;
  server : Identxx.Host.t;
}

val simple_network :
  ?config:Controller.config ->
  ?obs:Obs.Registry.t ->
  ?spans:Obs.Span.t ->
  ?recorder:Obs.Recorder.t ->
  ?client_ip:Ipv4.t ->
  ?server_ip:Ipv4.t ->
  unit ->
  simple
(** The Figure-1 setup: one client, one switch, one server, one
    controller. Client defaults to 10.0.0.1, server to 10.0.0.2.
    [obs]/[spans]/[recorder] are handed to {!Controller.create}. *)

val branch_network :
  ?config:Controller.config ->
  ?obs:Obs.Registry.t ->
  ?spans:Obs.Span.t ->
  ?recorder:Obs.Recorder.t ->
  policy_a:string ->
  policy_b:string ->
  unit ->
  branches
(** §4's two collaborating branches: switches 1 and 2, each its own
    controller's domain, joined by a 2 ms s1:9-s2:9 link. Each policy
    is its controller's file ["00"], installed before the hosts attach
    (whose daemon changes are not watched). *)

val tree_network :
  ?config:Controller.config ->
  ?obs:Obs.Registry.t ->
  ?spans:Obs.Span.t ->
  ?recorder:Obs.Recorder.t ->
  depth:int ->
  fanout:int ->
  hosts_per_edge:int ->
  unit ->
  Sim.Engine.t
  * Openflow.Network.t
  * Controller.t
  * Identxx.Host.t array
(** A [fanout]-ary tree of switches of the given [depth] (depth 1 = a
    single switch), with [hosts_per_edge] hosts under every leaf switch
    — the classic aggregation topology. Host IPs are 10.(leaf/250).
    (leaf mod 250).h. *)

val linear_network :
  ?config:Controller.config ->
  ?obs:Obs.Registry.t ->
  ?spans:Obs.Span.t ->
  ?recorder:Obs.Recorder.t ->
  switches:int ->
  hosts_per_switch:int ->
  unit ->
  Sim.Engine.t
  * Openflow.Network.t
  * Controller.t
  * Identxx.Host.t array
(** A chain of [switches] switches, each with [hosts_per_switch] hosts
    (IPs 10.0.s.h), all in controller domain 0 — the workhorse topology
    for benchmarks. *)
