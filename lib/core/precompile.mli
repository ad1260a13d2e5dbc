(** Proactive compilation of PF+=2 rules into dataplane entries.

    "ident++ ... keeps enforcement in the network where it can be done
    at line-rate" (§6). Most PF+=2 rules need end-host information and
    must be decided reactively, but a prefix of the ruleset can be
    pushed straight into the switches: the {e leading} [block quick]
    rules whose match uses only network primitives. Because [quick]
    short-circuits evaluation at the first matching quick rule, a
    network-only [block quick] that precedes every other quick rule
    decides its flows identically whether evaluated in the controller
    or as a drop entry in the dataplane — so such traffic (port scans,
    known-bad prefixes) never causes a packet-in at all.

    A rule is compilable when it:
    - is [block quick],
    - has no [with] clauses and no [log] modifier,
    - uses non-negated addresses (any / table / prefix), and
    - constrains ports by equality or by a range of at most
      {!max_range_expansion} ports (OpenFlow 1.0 matches cannot express
      ranges, so small ranges are expanded).

    A compilable rule is offloaded iff its flow-space is disjoint from
    every earlier non-compilable [quick] rule's (over-approximated)
    flow-space — an overlapping earlier quick rule could decide one of
    its flows differently, so that rule stays reactive. Disjointness is
    decided symbolically with {!Analysis.Fdd.Space}; this strictly
    generalizes the previous behaviour of stopping compilation at the
    first non-compilable quick rule. *)

val max_range_expansion : int
(** 16. *)

val drop_matches : Pf.Env.t -> Openflow.Match_fields.t list
(** The match fields to install as maximum-priority drop entries. Table
    references expand to the cross product of their prefixes. A drop
    that meets the keep-state reverse space ({!state_spaces}) is
    withheld: state matching precedes the ruleset, so a reply that keep
    state admits must not meet a drop above its reverse entries. *)

val state_spaces : Pf.Env.t -> Analysis.Fdd.Space.t * Analysis.Fdd.Space.t
(** The (forward, reverse) flow spaces of the keep-state pass rules,
    over-approximated. A pass entry meeting the forward space must punt
    (the controller records the state); a drop meeting the reverse space
    must not sit above the replies keep state admits. *)

val meets_state : Analysis.Fdd.Space.t -> Openflow.Match_fields.t -> bool
(** Whether an entry's match meets a state space. *)

val compilable_rule : Pf.Env.t -> Pf.Ast.rule -> bool
(** Whether a single rule satisfies the per-rule conditions above
    (ignoring its position among quick rules). *)
