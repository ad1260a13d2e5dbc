(** ident++ response packets (§3.2).

    A response repeats the flow's protocol and ports, then carries
    key-value pairs in sections separated by empty lines. Each section
    is one source's contribution (the user, the application, the local
    administrator, or a controller on the path that augmented the
    response). Later sections were added later — by parties closer to
    the decision-maker — and are therefore "the most trusted (though not
    necessarily the most trustworthy)" (§3.3). *)

open Netcore

type t = {
  proto : Proto.t;
  src_port : int;
  dst_port : int;
  sections : Key_value.section list;
}

val make : flow:Five_tuple.t -> Key_value.section list -> t
(** Empty sections are dropped (they would corrupt the framing). *)

val append_section : t -> Key_value.section -> t
(** What an intercepting controller does to augment a response: "the
    controller inserts an empty line followed by the key-value pairs it
    wishes to add" (§3.4). Appending an empty section is a no-op. *)

val latest : t -> string -> string option
(** The most recently added binding of the key: sections are searched
    last-to-first. "Indexing the dictionaries will give the latest value
    added to the response" (§3.3). *)

val all_values : t -> string -> string list
(** Every binding of the key in section order (for the [*@src[key]]
    concatenation access of §3.3). *)

val concat_values : t -> string -> string
(** [all_values] joined with [","] — the [*@] form. *)

val keys : t -> string list
(** All distinct keys present, in first-appearance order. *)

val encode : t -> string
(** Wire payload, written into one buffer of its exact length:
    {v
<PROTO> <SRC PORT> <DST PORT>
<key 0>: <value 0>
...

<key n>: <value n>
...
    v} *)

val decode : string -> (t, string) result
(** Inverse of {!encode}, read in one pass over the payload: runs of
    blank lines make no empty sections, and one space after a pair's
    [':'] is stripped. [Error] names the first malformed line, or the
    malformed header (["response: malformed header ..."]).

    It allocates the result, its lists and its pairs: each value is
    copied out, and a key the protocol names is its shared constant
    ({!Key_value.key_of_slice}), not a copy. *)

(** {2 Daemon-side trace piggyback}

    A daemon answering a traced query (see {!Query.t}[.trace]) returns
    its own span timings as one ordinary key-value section —
    [trace-id], [trace-parent] (the querier's span the timings belong
    under) and [trace-spans] (["name@start+duration"] tokens joined
    with [";"], times in seconds on the daemon's clock). Controllers
    that predate tracing see three unknown pairs and ignore them; see
    doc/PROTOCOL.md. *)

val attach_trace :
  t -> trace_id:string -> parent:string ->
  spans:(string * float * float) list -> t
(** Append the trace section. Each span is [(name, start, end_)]. *)

val trace_info : t -> (string * string * (string * float * float) list) option
(** The first trace section, as [(trace_id, parent, spans)]; [None]
    when absent or unintelligible (version tolerance: such a response
    is simply an untraced response). *)

val is_trace_section : Key_value.section -> bool
(** Whether the section carries both {!trace_id_key} and
    the trace-spans key — the shape {!attach_trace} produces. *)

val strip_trace : t -> t
(** The response without its trace section(s); the response itself when
    it has none. Controllers strip after
    extracting {!trace_info}, so per-flow trace ids never reach policy
    evaluation or the fast-path attribute cache. (The decision-cache key
    holds only the pairs the policy reads, so trace ids would split it
    only under a policy that reads them or calls [allowed()].) *)

val trace_id_key : string
