(** Recursive-descent parser for PF+=2 (§3.3). *)

val parse : string -> (Ast.ruleset, string) result
(** Parse a complete configuration (declarations and rules in source
    order). Errors carry the source line. *)

val parse_rules : string -> (Ast.rule list, string) result
(** Parse text that should contain only rules (e.g. a [requirements]
    value from an ident++ response); declarations are rejected. *)
