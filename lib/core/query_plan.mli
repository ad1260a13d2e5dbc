(** Everything the controller derives from one policy revision, built
    once when the revision is installed and replaced whole by the next:
    the revision's epoch and environment, which ends of a flow to ask,
    the key list every query hints, the shape of the decision-cache key,
    the compiled decision diagram, and the intercept table that answers
    and augments ident++ traffic on the hosts' behalf (§3.4).

    {b Ends.} A flow's region of the revision's decision diagram
    ({!Analysis.Fdd.lookup}) names the rule lines that may decide it:
    a [Static] leaf's [lines], a [Reactive] leaf's [reason.lines]. The
    ends to ask are those the [with] clauses of those lines read. An
    end no candidate line reads cannot change the verdict: {!Pf.Eval}
    reads an answer only through a dictionary access, and a rule that
    cannot decide here changes nothing but through an evaluation error,
    which only [allowed()] can raise from an answer's contents. So a
    policy that calls [allowed()] anywhere asks both ends, and a flow
    whose candidate lines read nothing is decided with no query at all.

    {b Hints.} A daemon leaves out every static section that holds none
    of the hinted keys (doc/PROTOCOL.md §2), so the hints must name
    every key the controller reads from an answer:
    - the policy's {!Pf.Env.referenced_keys};
    - {!Audit.interesting_keys}, so audit entries stay whole;
    - {!Fastpath.Answers.expires_key}, so a daemon's own lifetime
      bound reaches a settled answer.

    Under [allowed()] the list is empty, which asks for everything:
    rules carried in an answer may read any key. A key the wire cannot
    carry ({!Identxx.Key_value.valid_key}) is left out: no answer can
    bind it.

    {b Intercepts.} The [intercept] lines by kind, in policy order, each
    section built once without the pairs the wire cannot carry. *)

type ends = { src : bool; dst : bool }
(** Which ends of a flow to ask. *)

type t

val make : default:Pf.Ast.action -> ?prev:t -> Policy_store.Revision.t -> t
(** The plan of a revision; [default] is the policy's implicit verdict.
    [prev], the previous plan, hands its compile's {!Analysis.Fdd.steps}
    to this one's ({!Analysis.Fdd.recompile}), or on to the next when
    this revision's environment fails to build. Such a plan asks both
    ends, hints nothing, keys decisions on the full flow and every pair,
    and intercepts nothing. *)

val epoch : t -> int
val env : t -> (Pf.Env.t, string) result

val ends : t -> Netcore.Five_tuple.t -> ends
(** The ends [flow]'s verdict can read, memoized per diagram leaf. *)

val hints : t -> string list
(** The hint list, as described above. *)

val hint_key : t -> string
(** {!hints} in canonical form ({!Fastpath.Answers.hint_key}): the
    hint part of every answer-reuse key. *)

val query_hints : t -> Identxx.Query.hints
(** {!hints} as every query's key lines, rendered once
    ({!Identxx.Query.write}). *)

val shape : t -> Fastpath.decision_shape

val diagram : t -> Analysis.Fdd.t option
(** The revision's compiled diagram; [None] when the policy fails to
    build. *)

val answer_for : t -> Netcore.Ipv4.t -> Identxx.Key_value.section option
(** The table's own section of the first [intercept query] line whose
    target covers the address: the answer given on the host's behalf. *)

val augment_for : t -> Netcore.Ipv4.t -> Identxx.Key_value.section
(** The sections of every covering [intercept response] line, joined in
    policy order ([[]] for none); it copies only to join two or more. *)
