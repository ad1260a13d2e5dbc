(** The representation of a {!Response.t} and the canonical wire text it
    holds. This module is private to the library: {!Response} exports the
    type as [private], so only this library's writers build one, and each
    writes a canonical payload.

    A canonical payload is the header line {!Header.write} writes, then
    the sections, one blank line between two and none anywhere else.
    Each section is at least one line ["<key>: <value>\n"] of a valid
    pair ({!Key_value.pair}). The readers below rely on that shape: every
    line they start on ends in ['\n'], and a line's first [':'] ends its
    key.

    This module is the one that knows where a canonical payload's keys,
    values and sections sit. The library's readers walk it with three
    walkers — {!fold_pairs} over pair lines, {!fold_sections} over
    sections, {!fold_lines} over the lines with one prefix, section
    breaks reported — and note where a value sits as a {!Slice.t}. *)

open Netcore

type t = { proto : Proto.t; src_port : int; dst_port : int; payload : string }

(** {2 Writing} *)

val put : Bytes.t -> int -> string -> int
(** [put b pos s] writes [s] at [pos]; the position after it. *)

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

val same_sub : string -> int -> string -> int -> int -> bool
(** [same_sub a i b j len]: whether the [len] bytes of [a] from [i] are
    those of [b] from [j]. *)

val section_stop : string -> int -> int
(** The end of the section whose first line starts at the position: just
    past its last line's ['\n']. The next section, if any, starts one
    byte later. *)

(** {2 Walkers}

    The three walks over canonical lines. Each calls a top-level
    function with a state [st] that it passes on unchanged and an
    accumulator [acc] that it threads, so a walk allocates nothing of
    its own. A step may end a walk by raising. *)

val fold_pairs :
  ('st -> 'a -> string -> int -> int -> int -> 'a) ->
  'st -> 'a -> string -> int -> int -> 'a
(** [fold_pairs f st acc s i stop]: [f st acc s i k e] for each pair line
    from line position [i] up to [stop], in order, blank lines skipped:
    its key is [[i, k)] and its value [[k + 2, e)], [e] the line's
    ['\n']. Walks a payload's sections or a {!part}'s [text]. *)

val fold_sections :
  ('st -> 'a -> string -> int -> int -> 'a) -> 'st -> 'a -> string -> int -> 'a
(** [fold_sections f st acc s i]: [f st acc s i stop] for each section from
    the one starting at [i] to the payload's last, in order: its lines
    run from [i] to [stop], just past its last ['\n'], and the next
    starts at [stop + 1]. *)

val fold_lines :
  string ->
  ('st -> 'a -> string -> int -> int -> int -> 'a) ->
  'st -> 'a -> string -> int -> int -> 'a
(** [fold_lines pre f st acc s i stop], [i >= 1]: for each line from [i]
    up to [stop], in order, [f st acc s n q e] when the line starts with
    the non-empty [pre], [q] just past [pre] and [e] the line's
    ['\n']; and [f st acc s n p p] at each blank line [p], the break
    that ends a section. [n] counts the breaks passed since [i]. Only
    lines starting with [pre]'s first byte are read past it, found a
    word at a time. *)

val find : string -> int -> int -> string -> int
(** [find s i stop key]: where the value of the last binding of the
    valid [key] among the lines from [i] to [stop] starts; [-1] when
    none binds it. A {!fold_lines} of [key]. *)

val is_trace : string -> int -> int -> bool
(** Whether the section between the positions carries both the
    [trace-id] and the [trace-spans] keys. *)
