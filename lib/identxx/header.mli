(** The first line both ident++ payloads share,
    ["<PROTO> <SRC PORT> <DST PORT>"] (§3.2), written and read in place:
    writing fills the caller's buffer, reading allocates nothing for a
    well-formed line. *)

open Netcore

val length : Proto.t -> int -> int -> int
(** The bytes {!write} writes, its newline included. *)

val write : Bytes.t -> int -> Proto.t -> int -> int -> int
(** [write b pos proto src_port dst_port] writes the line and its newline
    at [pos] — the protocol's upper-case name or its number, then both
    ports in decimal — and returns the position after it. *)

val is_written : string -> Proto.t -> int -> int -> bool
(** [is_written s proto src_port dst_port]: whether [s] starts with the
    line {!write} writes for them, its newline included. *)

val parse : string -> int -> int -> int
(** [parse s pos stop] reads the line [String.sub s pos (stop - pos)]:
    trimmed of surrounding white space, it must be exactly three fields
    separated by single spaces — a protocol as {!Proto.of_string_opt}
    reads it and two ports in [0, 65535] as [int_of_string_opt] reads
    them. The result packs the three fields, read back with {!proto},
    {!src_port} and {!dst_port}; it is negative for a malformed line,
    named by {!error}. *)

val proto : int -> Proto.t
val src_port : int -> int
val dst_port : int -> int

val error : string -> int -> string
(** [error who h], for a negative {!parse} result [h]: the message
    naming the payload kind [who] (["query"], ["response"]) and whether
    the line or its fields were malformed. *)
