(** A simulated host process/socket table.

    The real daemon "uses the 5-tuple in the query packet to find the
    process ID and user ID associated with the flow using techniques
    similar to lsof" (§3.5). This module is that substrate: it tracks
    which process owns which connection or listening socket, so the
    daemon can answer queries both for flows the host originated and for
    flows a listener would accept. *)

open Netcore

type process = {
  pid : int;
  user : string;
  groups : string list;
  exe_path : string;
  isolated : bool;
      (** The administrator marked this application setgid with a group
          that has no file access; such processes are protected against
          ptrace by their peers (S5.4). *)
}

type t

val create : unit -> t

val spawn :
  t -> ?pid:int -> ?isolated:bool -> user:string -> groups:string list ->
  exe:string -> unit -> process
(** Register a process; [pid] defaults to the next free pid,
    [isolated] to false. *)

val ptrace : t -> by:int -> target:int -> (process, string) result
(** The S5.4 attack: a compromised process [by] tries to subvert
    [target] via exec+ptrace to masquerade as it. Unix semantics: only
    same-user processes can be traced, and never {!process.isolated}
    ones. On success the caller can register flows under the target's
    pid, so the daemon attributes them to the target application. *)

val kill : t -> pid:int -> unit
(** Removes the process and all its sockets. *)

val connect : t -> pid:int -> flow:Five_tuple.t -> unit
(** Record that [pid] owns the client side of [flow] (as the host sees
    it: source = this host). @raise Invalid_argument for unknown pids. *)

val listen : t -> pid:int -> proto:Proto.t -> port:int -> unit
(** Record a listening socket. *)

val close_listen : t -> pid:int -> proto:Proto.t -> port:int -> unit
val disconnect : t -> flow:Five_tuple.t -> unit

val owner_of_flow : t -> flow:Five_tuple.t -> process option
(** Exact connection match (the host is the flow's source). *)

val owner_of_listener : t -> proto:Proto.t -> port:int -> process option
(** Who would accept a flow to this port ("a destination that has yet to
    accept a connection", §3.5). *)

val lookup :
  t -> flow:Five_tuple.t -> as_source:bool -> process option
(** [as_source:true] resolves via the connection table; [as_source:false]
    first tries an accepted connection for the reversed flow, then the
    listener on the flow's destination port. *)

val processes : t -> process list

type change =
  | Spawned  (** {!spawn} registered a new pid. *)
  | Killed of int  (** {!kill} removed this pid. *)
  | Listeners  (** {!listen} or an effective {!close_listen}. *)

val on_change : t -> (change -> unit) -> unit
(** Register a callback fired after every {!spawn}, {!kill}, {!listen}
    and effective {!close_listen} — the identity-bearing events: what
    the daemon would answer about users and applications may have
    changed. A listener's answer holds for every new flow to its port,
    so re-binding one changes the answer for all of them. Connection
    churn ({!connect}/{!disconnect}) deliberately does {e not} fire: it
    changes only the answer about its own flow, and firing on every
    connection would defeat any cache of host attributes. *)
