(** Render PF+=2 syntax back to text. [Parser.parse] of the output
    yields the same AST (round-trip property, tested). *)

val rule : Ast.rule -> string
val ruleset : Ast.ruleset -> string
