(** The classic Identification Protocol (RFC 1413), implemented on top
    of the ident++ daemon's process table.

    ident++ "is inspired by the Identification Protocol, but is richer
    and more flexible" (§1, §6). This module provides the original
    protocol for interoperability and for the daemon-only deployment
    mode (§4): a server that only speaks RFC 1413 can still learn which
    user owns a connection arriving from an ident++-enabled host.

    Request: ["<port-on-server-host>, <port-on-client-host>"] sent to
    TCP port 113 of the {e client} host — note the reversed perspective:
    the querier is the connection's server, so its local port pairs with
    the queried host's port. Response:
    ["<ports> : USERID : UNIX : <user>"] or ["<ports> : ERROR : <code>"]. *)

open Netcore

val handle_request :
  processes:Process_table.t -> local_ip:Ipv4.t -> peer_ip:Ipv4.t -> string ->
  string
(** [handle_request ~processes ~local_ip ~peer_ip line] answers one
    request line as the daemon on the connection's client host:
    [local_ip] is this host, [peer_ip] the querying server. Errors use
    the RFC codes [INVALID-PORT], [NO-USER]. The response has no
    trailing newline. *)
