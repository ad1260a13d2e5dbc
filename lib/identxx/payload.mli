(** The representation of a {!Response.t} and the canonical wire text it
    holds. This module is private to the library: {!Response} exports the
    type as [private], so only this library's writers build one, and each
    writes a canonical payload.

    A canonical payload is the header line {!Header.write} writes, then
    the sections, one blank line between two and none anywhere else.
    Each section is at least one line ["<key>: <value>\n"] of a valid
    pair ({!Key_value.pair}). The readers below rely on that shape: every
    line they start on ends in ['\n'], and a line's first [':'] ends its
    key. *)

open Netcore

type t = { proto : Proto.t; src_port : int; dst_port : int; payload : string }

(** {2 Writing} *)

val put : Bytes.t -> int -> string -> int
(** [put b pos s] writes [s] at [pos]; the position after it. *)

val put_sub : Bytes.t -> int -> string -> int -> int -> int
(** [put_sub b pos s i len] writes [String.sub s i len] at [pos]; the
    position after it. *)

val put_char : Bytes.t -> int -> char -> int

val put_key : Bytes.t -> int -> string -> int
(** The key and the [": "] after it. *)

val pairs_length : int -> Key_value.section -> int
(** [pairs_length n section] is [n] plus the bytes of the section's
    lines. *)

val put_pairs : Bytes.t -> int -> Key_value.section -> int
(** Writes the section's lines. *)

type part = { text : string; tag : string; keys : int }
(** A section as a daemon sends it: its lines, each [key: value] and a
    ['\n'] ([""] when empty), its section tag ({!Signed.per_flow} for a
    per-flow section, [""] when unsigned), and the {!key_bit_sub}s of
    its keys. *)

val part : tag:string -> Key_value.section -> part

val key_bit_sub : string -> int -> int -> int
(** [key_bit_sub s i len]: one bit the non-empty key
    [String.sub s i len] sets; other keys may share it. A {!part}'s
    [keys] hold its keys' bits. *)

val length : proto:Proto.t -> src_port:int -> dst_port:int -> part list -> int
(** The bytes of the header and of the parts' sections, one blank line
    between two. *)

val write :
  Bytes.t -> proto:Proto.t -> src_port:int -> dst_port:int -> part list -> int
(** Writes them from position 0; the position after them. *)

val view : proto:Proto.t -> src_port:int -> dst_port:int -> Bytes.t -> t
(** The written buffer, taken over without a copy. *)

val assemble : proto:Proto.t -> src_port:int -> dst_port:int -> part list -> t
(** {!write} into a buffer of the exact {!length}. *)

(** {2 Reading}

    Positions index [payload]. A line position is the first byte of a
    pair line. *)

val body : t -> int
(** Where the first section starts: the header's length. *)

val index_in : string -> char -> int -> int -> int
(** [index_in s c i stop]: the first position from [i] up to [stop] that
    holds [c], or [stop]; read a word at a time. *)

val line_end : string -> int -> int
(** The first ['\n'] from the position, or the end: in a canonical
    payload, the one that ends the line holding the position. *)

val line_break : string -> int -> int
(** The first ['\n'] or ['\r'] from the position, or the end: where a
    line of a payload not yet checked ends, or breaks the grammar. *)

val colon : string -> int -> int
(** The first [':'] from the position, or the end: in a canonical
    payload, the one that ends the key of the line starting there. *)

val line_from : string -> char -> int -> int
(** [line_from s c i]: the first line from position [i >= 1] on that
    starts with [c] or is blank, read a word at a time; the payload's
    length when there is none. Lines are told apart by the ['\n'] before
    them, so [i] need not start one. *)

val section_stop : string -> int -> int
(** The end of the section whose first line starts at the position: just
    past its last line's ['\n']. The next section, if any, starts one
    byte later. *)

val is_key : string -> int -> string -> bool
(** Whether the line starting at the position has the valid key. *)

val same_sub : string -> int -> string -> int -> int -> bool
(** [same_sub a i b j len]: whether the [len] bytes of [a] from [i] are
    those of [b] from [j]. *)

val is_key_sub : string -> int -> string -> int -> int -> bool
(** [is_key_sub s i k pos len]: {!is_key} of the key
    [String.sub k pos len], a valid key, read where it sits. *)

val find : string -> int -> int -> string -> int
(** [find s i stop key]: where the value of the last binding of [key]
    among the lines from [i] to [stop] starts; [-1] when none binds
    it. *)

val is_trace : string -> int -> int -> bool
(** Whether the section between the positions carries both the
    [trace-id] and the [trace-spans] keys. *)
