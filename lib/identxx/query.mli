(** ident++ query packets (§3.2).

    A query carries the flow's protocol and ports in its payload; the
    flow's IP addresses ride in the query packet's own IP header ("the
    controller making the query uses the flow's destination IP address
    as the query's source IP address"). The key list is only a hint:
    responders may return additional unsolicited pairs. *)

open Netcore

type t = {
  proto : Proto.t;
  src_port : int;
  dst_port : int;
  keys : string list;
  nonce : string option;
      (** The querier's nonce: 1 to 64 lower-case hex digits, drawn
          fresh for each query and resent unchanged on retry. Rides the
          wire as one extra hint key (["@nonce/<hex>"]) that daemons
          predating it ignore; a signing daemon echoes it inside its
          binding tag ({!Signed}), so an answer cannot be replayed onto
          another query. *)
  trace : Obs.Trace_context.t option;
      (** Distributed-tracing context, when the querier traces
          flow setups. Rides the wire as one extra hint key
          (["@trace/<ids>"]) that pre-tracing daemons ignore — see
          doc/PROTOCOL.md. *)
}

val make : flow:Five_tuple.t -> keys:string list -> t
(** Builds a query without a nonce or trace context ([nonce = None],
    [trace = None]).
    @raise Invalid_argument when a key is malformed. *)

val with_trace : t -> Obs.Trace_context.t option -> t
(** The same query carrying (or stripped of) a trace context. *)

val nonce_key_prefix : string
(** ["@nonce/"] — the hint-key spelling of the nonce. *)

val trace_key_prefix : string
(** ["@trace/"] — the hint-key spelling of the trace context. *)

val flow_of : t -> src:Ipv4.t -> dst:Ipv4.t -> Five_tuple.t
(** Reassemble the queried flow from the payload fields plus the
    addresses recovered from the query packet's IP header. *)

val encode : t -> string
(** The on-the-wire payload, written into one buffer of its exact
    length:
    {v
<PROTO> <SRC PORT> <DST PORT>
<key 0>
<key 1>
...
    v}
    A query carrying a nonce appends one more key line,
    ["@nonce/<hex>"], and one carrying a trace context then appends
    ["@trace/<trace_id>-<span_id>-<s|n>"]. *)

val decode : string -> (t, string) result
(** The first key line matching the {!nonce_key_prefix} form becomes
    [nonce] and the first matching the {!trace_key_prefix} form becomes
    [trace]; everything else — including a malformed ["@nonce/"] or
    ["@trace/"] token — stays in [keys], so frames without (or with
    unintelligible) extensions decode exactly as they always did.

    The payload is read in place. It allocates the result, its keys
    list, each kept key the protocol does not name
    ({!Key_value.key_of_slice}) and the nonce; a trace context too, when
    there is one. *)
