(** The static environment of a PF+=2 configuration: macros, tables
    (with nested references resolved) and dictionaries, plus the rule
    list in source order. *)

open Netcore

type t

val build : Ast.ruleset -> (t, string) result
(** Resolves table references (rejecting cycles and unknown names) and
    checks that rules mention only defined tables. Later definitions of
    the same macro/table/dict name shadow earlier ones, matching the
    "files are concatenated" controller model (§3.4). *)

val of_string : string -> (t, string) result
(** Parse then build. *)

val rules : t -> Ast.rule list
val intercepts : t -> Ast.intercept list

val addr_spec_matches : t -> Ast.addr_spec -> Netcore.Ipv4.t -> bool
(** Evaluate an address spec against an address (false when it names an
    unknown table — {!build} rejects that case anyway). *)

val referenced_keys : t -> string list
(** Every response key the rules read through [@src]/[@dst] accesses, in
    first-use order — exactly "the keys that the controller is
    interested in" that a query should hint (§3.2). *)

val macro : t -> string -> string option
val table : t -> string -> Prefix.t list option
val dict : t -> string -> (string * string) list option

val macro_exn : t -> string -> string
val table_exn : t -> string -> Prefix.t list
(** {!macro} and {!table} without the option: they allocate nothing.
    @raise Not_found for an undefined name. *)

val spec_list : t -> string -> Items.t
(** The split form of a list spec that some rule passes to [member] as
    its second argument: a literal, a macro's value or a [dict] entry.
    Split once per environment, so a reload that changes the text
    changes the list. Allocates nothing.
    @raise Not_found for any other text, such as an answer's. *)

val multi_list : t -> string -> Items.t
(** {!spec_list} for the multi-values rules pass to [includes] as its
    first argument. *)

val table_names : t -> string list

val requirement : t -> string -> (Ast.rule list, string) result
(** An [allowed()] argument's rules ({!Parser.parse_rules}), memoized
    per environment: a reload starts an empty memo. It holds at most
    1,024 texts and evicts the oldest, one at a time. *)
