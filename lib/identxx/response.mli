(** ident++ response packets (§3.2).

    A response repeats the flow's protocol and ports, then carries
    key-value pairs in sections separated by empty lines. Each section
    is one source's contribution (the user, the application, the local
    administrator, or a controller on the path that augmented the
    response). Later sections were added later — by parties closer to
    the decision-maker — and are therefore "the most trusted (though not
    necessarily the most trustworthy)" (§3.3). *)

open Netcore

type t = Payload.t = private {
  proto : Proto.t;
  src_port : int;
  dst_port : int;
  payload : string;
      (** The whole wire payload, header line included, always in its
          canonical form: the header as {!encode} writes it, one
          ["<key>: <value>"] line per pair, one blank line between two
          sections and none elsewhere. *)
}
(** A response is a view over its payload: the readers below scan the
    payload where it sits and copy out only the values they return. Only
    this library builds one, each through a writer or a check that keeps
    the payload canonical. *)

val make : flow:Five_tuple.t -> Key_value.section list -> t
(** The payload of the sections, written into one buffer of its exact
    length. Empty sections are dropped (they would corrupt the
    framing). *)

val append_section : t -> Key_value.section -> t
(** What an intercepting controller does to augment a response: "the
    controller inserts an empty line followed by the key-value pairs it
    wishes to add" (§3.4). Appending an empty section is a no-op. *)

val latest : t -> string -> string option
(** The most recently added binding of the key: sections are searched
    last-to-first. "Indexing the dictionaries will give the latest value
    added to the response" (§3.3). Allocates the value and its
    option. *)

val latest_slices : t -> string list -> Slice.t array -> unit
(** [latest_slices t keys found] sets [found.(j)], for the [j]th of the
    distinct keys, to where {!latest}'s value sits in the payload, or to
    {!Slice.none} when the key has no binding; [found] is as long as
    [keys]. One pass over the payload, and allocates nothing. *)

val all_values : t -> string -> string list
(** Every binding of the key in section order (for the [*@src[key]]
    concatenation access of §3.3). *)

val fold_values : t -> string -> ('a -> string -> int -> int -> 'a) -> 'a -> 'a
(** [fold_values t key f acc] folds [f] over the bindings of [all_values]
    in the same order, each given where it sits: [f acc payload pos len]
    for the value [String.sub payload pos len]. Copies nothing. *)

val keys : t -> string list
(** All distinct keys present, in first-appearance order. *)

val sections : t -> Key_value.section list
(** The sections, decoded from the payload on every call: for tests and
    other callers off the flow-setup path. *)

val fold_pairs :
  t -> ('a -> 'a) -> ('a -> string -> int -> int -> int -> 'a) -> 'a -> 'a
(** [fold_pairs t section pair acc] walks {!sections} where they sit:
    [section acc] as each section opens, then [pair acc payload i k e]
    for each of its pairs in order, the key [String.sub payload i
    (k - i)] and the value [String.sub payload (k + 2) (e - k - 2)].
    Copies nothing. *)

val encode : t -> string
(** The payload; allocates nothing:
    {v
<PROTO> <SRC PORT> <DST PORT>
<key 0>: <value 0>
...

<key n>: <value n>
...
    v} *)

val decode : string -> (t, string) result
(** Inverse of {!encode}, checked in one pass over the payload: runs of
    blank lines make no empty sections, and one space after a pair's
    [':'] is stripped. [Error] names the first malformed line, or the
    malformed header (["response: malformed header ..."]).

    A payload that is already canonical becomes the view as it is, and
    only the record and its [Ok] are allocated. Any other well-formed
    payload — [key:v] with no space, runs of blank lines, a last line
    with no newline, a header in another spelling — is re-rendered into
    its canonical form. *)

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

val strip_trace : t -> t
(** The response without its trace sections — each section carrying
    both {!trace_id_key} and the trace-spans key, the shape
    {!attach_trace} produces; the response itself when it has none, found
    in one pass. Controllers strip, and then extract {!trace_info} from
    what had a trace section, so per-flow trace ids never reach policy
    evaluation or the fast-path attribute cache. (The decision-cache key
    holds only the pairs the policy reads, so trace ids would split it
    only under a policy that reads them or calls [allowed()].) *)

val trace_id_key : string
