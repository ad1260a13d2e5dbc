(** The controller's configuration files (§3.4): [.control] files that
    "reside in a well known location", are "read in alphabetical order
    and their contents concatenated". Some are written by the
    administrator, others supplied by application developers or
    third-party security companies (Figure 2's 00-local-header /
    50-skype / 99-local-footer split). *)

type t

val create : unit -> t

val add : t -> name:string -> string -> (unit, string) result
(** Add or replace a file. The content must parse as PF+=2 (a parse
    error names the file as given and the line as the file numbers it:
    ["bad.control: line 2: …"]), and the files' environment must build
    with it (an error that names a line names it the same way, by the
    file that holds it, which need not be the file added; one without
    a line names the file added); on success the compiled environment
    is refreshed. The [".control"] suffix is optional in [name] and
    ignored for ordering and replacing.

    Each file is parsed once, at its first line in the concatenation,
    and kept parsed: the environment is built from the files' stored
    declarations, and a file is parsed again only when its text or its
    first line changes (a longer or shorter file before it). When a
    file's last rule would read on into the next file, only a parse of
    the concatenation tells what it holds, and the store parses it
    (see {!Pf.Parser.joined}). *)

val load : (string * string) list -> (t, string) result
(** [load files]: a store of [files] ([(name, text)], in any order), in
    the order {!add} keeps and each parsed alone at its first line, as
    {!add} parses it; its first error in that order is the result. Two
    names that differ only by the [".control"] suffix name one file and
    are refused. Unlike {!add}, the store is returned when its
    environment does not build: {!env} says why, and {!ruleset} and
    {!locate} still serve an analysis of it. *)

val add_exn : t -> name:string -> string -> unit
val remove : t -> name:string -> unit
val files : t -> (string * string) list
(** In alphabetical (= evaluation) order, named without the
    [".control"] suffix. *)

val ruleset : t -> (Pf.Ast.ruleset, string) result
(** The declarations of the concatenation, whether or not its
    environment builds. Fails only when a file's last rule reads on
    into the next file and the concatenation does not parse; the error
    names the line as {!locate} does. *)

val locate : t -> int -> string * int
(** [locate t line]: the file holding the concatenation's [line], named
    as given to {!add} or {!load}, and the line as that file numbers
    it; [("", line)] when [line] comes before the first file. *)

val env : t -> (Pf.Env.t, string) result
(** The compiled environment (cached; recompiled after changes). Fails
    when the concatenation is inconsistent, e.g. a rule referencing a
    table no file defines; an error that names a line names it as
    {!locate} does (["g.control: line 1: unknown table <ghost>"]). *)

val env_exn : t -> Pf.Env.t

val epoch : t -> int
(** Monotonic policy generation: starts at 0 and is bumped by every
    successful {!add}, every {!remove}, and every rolled-back load.
    Anything derived from a compiled environment (e.g. memoized
    verdicts) is valid only while the epoch it was computed under is
    current. *)

val on_change : t -> (unit -> unit) -> unit
(** Register a callback fired after every successful {!add} or
    {!remove} (the controller uses this to resynchronize its compiled
    flow table). *)
