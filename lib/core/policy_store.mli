(** The controller's configuration files (§3.4): [.control] files that
    "reside in a well known location", are "read in alphabetical order
    and their contents concatenated". Some are written by the
    administrator, others supplied by application developers or
    third-party security companies (Figure 2's 00-local-header /
    50-skype / 99-local-footer split).

    A policy is a {!Revision.t}, one immutable value per epoch, built
    from a whole file set in one way: files sort by name without the
    optional [".control"] suffix, and each must parse alone at its
    first line in the concatenation (an error names the file as given
    and the line as the file numbers it: ["bad.control: line 2: …"]).
    A file is parsed once: a revision built from another reuses its
    parse of every file whose text and first line did not change. When
    a file's last rule would read on into the next file, only a parse
    of the concatenation tells what it holds (see
    {!Pf.Parser.joined}). *)

module Revision : sig
  type t

  val epoch : t -> int
  (** 0 for {!load} and for a store's first revision, then one more for
      each revision a store installs. Anything derived from an
      environment (e.g. memoized verdicts) is valid only under its
      epoch. *)

  val files : t -> (string * string) list
  (** In alphabetical (= evaluation) order, named without the
      [".control"] suffix. *)

  val ruleset : t -> (Pf.Ast.ruleset, string) result
  (** The declarations of the concatenation, whether or not its
      environment builds. Fails only when a file's last rule reads on
      into the next file and the concatenation does not parse. *)

  val env : t -> (Pf.Env.t, string) result
  (** The compiled environment. Fails when the concatenation is
      inconsistent, e.g. a rule naming a table no file defines. An
      error that names a line names it as {!locate} does
      (["g.control: line 1: unknown table <ghost>"]). *)

  val locate : t -> int -> string * int
  (** [locate r line]: the file holding the concatenation's [line],
      named as given, and the line as that file numbers it; [("", line)]
      before the first file. *)
end

val load : (string * string) list -> (Revision.t, string) result
(** [load files]: the revision of [files] ([(name, text)], in any
    order), or the first parse error in name order. Two names of one
    file ([a] and [a.control]) are refused. A revision whose
    environment does not build is returned: {!Revision.env} says why,
    and {!Revision.ruleset} and {!Revision.locate} still serve an
    analysis of it. *)

type t
(** A store: the current revision, replaced whole by each accepted
    edit. A refused edit changes nothing. *)

val create : unit -> t
val current : t -> Revision.t

val set : t -> (string * string) list -> (unit, string) result
(** Install [files] as one revision, built as {!load} builds it; refused
    when a file does not parse or the environment does not build. An
    environment error that names no line names the first file the edit
    placed anew: added, changed, or moved by a longer or shorter file
    before it. *)

val add : t -> name:string -> string -> (unit, string) result
(** Add or replace one file: {!set} of the current files with it. So an
    edit that breaks the environment is refused even when a later file
    would mend it; {!set} takes such a set whole. *)

val add_exn : t -> name:string -> string -> unit

val remove : t -> name:string -> bool
(** Install the current files without [name], whether or not their
    environment builds, and say whether the store held it. Removing a
    name it does not hold installs nothing and fires nothing. *)

val env : t -> (Pf.Env.t, string) result
(** The current revision's {!Revision.env}. *)

val env_exn : t -> Pf.Env.t

val on_change : t -> (Revision.t -> unit) -> unit
(** Register a callback fired with each revision the store installs;
    the controller derives its query plan and compiled flow table from
    it. *)
