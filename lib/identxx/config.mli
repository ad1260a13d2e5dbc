(** ident++ daemon configuration files (§3.5, Figures 3, 4, 6).

    A configuration file contains comment lines ([#...]), top-level
    key-value pairs that apply to every flow on the host (e.g. an
    [os-patch] level set by the local administrator), and [@app] blocks
    keyed by executable path:

    {v
@app /usr/bin/skype {
name : skype
version : 210
requirements : \
pass from any port http \
with eq(@src[name], skype)
req-sig : 21oir...w3eda
}
    v}

    A trailing backslash continues a value onto the next line; the
    continuation lines are joined with single spaces, mirroring how PF
    configuration treats continuations. *)

type app_block = { path : string; pairs : Key_value.section }

type t = {
  globals : Key_value.section;  (** Top-level pairs. *)
  apps : app_block list;
}

val empty : t

val parse : string -> (t, string) result
(** Parse one file's contents. *)

val merge : t -> t -> t
(** Later files' pairs append after earlier ones (so they are "later"
    and win {!Response.latest}-style lookups). *)

val app : t -> path:string -> Key_value.section option
(** The pairs of the [@app] block for an executable path. When several
    blocks name the same path, their pairs are concatenated in file
    order. [None] when no block mentions the path. *)

val render : t -> string
(** Print back to the file syntax ({!parse} of the result is [t] up to
    continuation layout). *)
