(** ident++ query packets (§3.2).

    A query carries the flow's protocol and ports in its payload; the
    flow's IP addresses ride in the query packet's own IP header ("the
    controller making the query uses the flow's destination IP address
    as the query's source IP address"). The key list is only a hint:
    responders may return additional unsolicited pairs.

    The payload:
    {v
<PROTO> <SRC PORT> <DST PORT>
<key 0>
<key 1>
...
    v}
    A query carrying a nonce appends one more key line,
    ["@nonce/<hex>"], and one carrying a trace context then appends
    ["@trace/<trace_id>-<span_id>-<s|n>"]. *)

open Netcore

type t = private {
  proto : Proto.t;
  src_port : int;
  dst_port : int;
  payload : string;  (** The whole wire payload, header line included. *)
  hint_bits : int;
      (** The bits of the plain hints ([Payload.key_bit_sub]), or'd:
          [0] exactly when the query hints no plain key. *)
  nonce_at : Slice.t;
      (** Where the first nonce hint's digits sit in [payload], or
          {!Slice.none}. *)
  trace_at : Slice.t;  (** The same for the first trace-context hint. *)
}
(** A query is a view over its payload: readers scan or compare its
    hints where they sit. Only this library builds one.

    The {e plain hints} are the key lines that are neither blank nor an
    extension token (any key starting with ['@'], such as the nonce and
    trace hints): the keys a daemon matches its sections against.

    The {e nonce} is the querier's: 1 to 64 lower-case hex digits, drawn
    fresh for each query and resent unchanged on retry. Rides the wire
    as one extra hint key (["@nonce/<hex>"]) that daemons predating it
    ignore; a signing daemon echoes it inside its binding tag
    ({!Signed}), so an answer cannot be replayed onto another query.

    The {e trace context}, when the querier traces flow setups, rides
    the wire as one extra hint key (["@trace/<ids>"]) that pre-tracing
    daemons ignore — see doc/PROTOCOL.md. *)

(** {2 Writing} *)

type hints
(** A hint-key list, checked and rendered as its key lines once. *)

val hints : string list -> hints
(** @raise Invalid_argument when a key is malformed. *)

val write :
  hints -> flow:Five_tuple.t -> nonce:Sim.Prng.t option ->
  trace:Obs.Trace_context.t option -> t
(** A querier's query about [flow], written into one buffer of its exact
    length: the header, the hint lines as rendered, then, with
    [Some g], a nonce of the 16 hex digits {!Sim.Prng.write_hex64} draws
    from [g] straight into the buffer, and the trace context. *)

val make :
  ?nonce:string -> ?trace:Obs.Trace_context.t -> flow:Five_tuple.t ->
  string list -> t
(** {!write} of the keys, with the nonce given.
    @raise Invalid_argument when a key or the nonce is malformed. *)

val of_keys :
  proto:Proto.t -> src_port:int -> dst_port:int -> ?nonce:string ->
  ?trace:Obs.Trace_context.t -> string list -> t
(** The query carrying these keys, each written as one line unchecked,
    and read back as the wire reads them: a blank key hints nothing, and
    one holding a [':'] hints a key no section has. The daemon's
    list-taking entry ({!Daemon.answer}) goes through it. *)

val nonce_key_prefix : string
(** ["@nonce/"] — the hint-key spelling of the nonce. *)

val trace_key_prefix : string
(** ["@trace/"] — the hint-key spelling of the trace context. *)

val encode : t -> string
(** The payload; allocates nothing. *)

(** {2 Reading} *)

val decode : string -> (t, string) result
(** Checks every line in one pass: the first key line matching the
    {!nonce_key_prefix} form becomes the nonce and the first matching
    the {!trace_key_prefix} form the trace context; everything else —
    including a malformed ["@nonce/"] or ["@trace/"] token — stays a
    key, so frames without (or with unintelligible) extensions decode
    exactly as they always did. A key line holding [':'] or CR is
    malformed. Allocates the view and its [Ok], however many keys the
    payload holds. *)

val exists_hint : t -> ('a -> string -> int -> int -> bool) -> 'a -> bool
(** [exists_hint t f a]: whether [f a payload pos len] holds for a plain
    hint, the key [String.sub payload pos len], scanned in payload
    order. *)

val nonce : t -> string option
(** A copy of the nonce. *)

val trace : t -> Obs.Trace_context.t option
(** The trace context, read from its hint on every call. *)

val keys : t -> string list
(** The key lines in order, neither blank nor the nonce or trace
    context, copied on every call: for tests and callers off the
    flow-setup path. *)

val flow_of : t -> src:Ipv4.t -> dst:Ipv4.t -> Five_tuple.t
(** Reassemble the queried flow from the payload fields plus the
    addresses recovered from the query packet's IP header. *)
