(** An end-host: identity, simulated executables, a process table and an
    ident++ daemon, plus the packet-level glue that makes the daemon
    reachable on TCP port 783. *)

open Netcore

type t

val create :
  ?behaviour:Daemon.behaviour -> name:string -> mac:Mac.t -> ip:Ipv4.t -> unit -> t

val name : t -> string
val mac : t -> Mac.t
val ip : t -> Ipv4.t
val daemon : t -> Daemon.t

val set_signing_key : t -> Idcrypto.Sign.keypair option -> unit
(** Authenticate the daemon's responses (see {!Signed}). *)

val set_metrics : t -> ?clock:(unit -> float) -> Obs.Registry.t -> unit
(** {!Daemon.set_metrics} with this host's name as the [host] label. *)

val processes : t -> Process_table.t

(** {2 Executables} *)

val install_exe : t -> path:string -> content:string -> unit
(** Place a simulated executable image on disk; its SHA-256 becomes the
    [exe-hash] the daemon reports. Fires {!Daemon.on_change}, since a
    replaced image changes what the daemon would answer. *)

val exe_hash : t -> path:string -> string option
(** Hex SHA-256 of the installed image. *)

(** {2 Running applications} *)

val run :
  t -> ?pid:int -> ?isolated:bool -> user:string -> ?groups:string list ->
  exe:string -> unit -> Process_table.process
(** Start a process. [groups] defaults to [[user]]; [isolated] marks the
    process setgid-protected against ptrace (S5.4). The executable need
    not be installed (then no [exe-hash] is reported). *)

val connect :
  t -> proc:Process_table.process -> dst:Ipv4.t -> ?src_port:int ->
  dst_port:int -> ?proto:Proto.t -> unit -> Five_tuple.t
(** Open a client connection from this host; registers flow ownership
    and returns the flow. [src_port] defaults to an ephemeral port
    allocated per host; [proto] defaults to TCP. *)

val listen : t -> proc:Process_table.process -> port:int -> ?proto:Proto.t -> unit -> unit

(** {2 ident++ on the wire} *)

val handle_packet : t -> Packet.t -> Packet.t option
(** The host's NIC receive path for ident++ purposes: a query packet
    addressed to this host yields the daemon's response packet
    (addressed back to the query's source), anything else [None].
    A {!Daemon.Silent} daemon yields [None]. *)

val first_packet : t -> flow:Five_tuple.t -> Packet.t
(** The initial data-plane packet of a flow (a TCP SYN or UDP datagram)
    with this host's MAC as Ethernet source. *)
