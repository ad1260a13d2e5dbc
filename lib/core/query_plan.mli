(** What one policy epoch asks of the ident++ exchange, computed once
    per epoch: which ends of a flow to ask, the key list every query
    hints, and the shape of the decision-cache key.

    {b Ends.} A flow's region of the epoch's decision diagram
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
    rules carried in an answer may read any key. *)

type ends = { src : bool; dst : bool }
(** Which ends of a flow to ask. *)

type t

val make : default:Pf.Ast.action -> ?prev:t -> (Pf.Env.t, string) result -> t
(** The plan for an epoch's environment; [default] is the policy's
    implicit verdict. [prev], the previous epoch's plan, hands its
    compile's {!Analysis.Fdd.steps} to this one's, so the diagram is
    recompiled from the first rule that changed
    ({!Analysis.Fdd.recompile}); a plan that fails to build keeps them
    for the next. A policy that fails to build asks both ends, hints
    nothing (so every section comes back), and keys decisions on the
    full flow and every pair. *)

val ends : t -> Netcore.Five_tuple.t -> ends
(** The ends [flow]'s verdict can read, memoized per diagram leaf. *)

val hints : t -> string list
(** The hint list, as described above. *)

val hint_key : t -> string
(** {!hints} in canonical form ({!Fastpath.Answers.hint_key}): the
    hint part of every answer-reuse key. *)

val shape : t -> Fastpath.decision_shape

val diagram : t -> Analysis.Fdd.t option
(** The epoch's compiled diagram; [None] when the policy fails to
    build. *)
