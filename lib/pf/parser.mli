(** Recursive-descent parser for PF+=2 (§3.3). *)

val parse : string -> (Ast.ruleset, string) result
(** Parse a complete configuration (declarations and rules in source
    order). Errors carry the source line. *)

type file
(** One file of a concatenation (§3.4), parsed on its own at its first
    line in the concatenation. *)

val parse_file : first_line:int -> string -> (file, string) result
(** {!parse}, numbering the text's lines from [first_line], and keeping
    what {!joined} needs to tell where the file meets its neighbours. *)

val joined : file list -> Ast.ruleset option
(** The declarations of the files in order: what {!parse} gives for
    their texts joined by newlines, when each file was parsed at its
    first line in that join. [None] when some file's last declaration
    would read on into the next file's first tokens (rules end by
    grammar, not at a newline: [to = "x"] opening a file continues the
    rule that ends the file before it), so only a parse of the join
    tells what it holds. *)

val parse_rules : string -> (Ast.rule list, string) result
(** Parse text that should contain only rules (e.g. a [requirements]
    value from an ident++ response); declarations are rejected. *)
