(** Proactive flow-table compiler: lower the static slice of a PF+=2
    decision diagram ({!Analysis.Fdd}) into a priority-ordered list of
    OpenFlow wildcard matches, so statically-decided traffic never costs
    a controller round-trip.

    The compiler walks the diagram's node ids level by level
    ({!Analysis.Fdd.parts}), planning each [(level, node)] once per
    {!cache}. At each node it factors the branch group with the
    largest expansion cost into a {e lower-priority wildcard} rule
    list (the classic
    NetKAT/NetCore linearization trick): because every branch compiles
    to a total rule list, the other branches' higher-priority rules
    claim their own intervals, and the widest group needs no interval
    expansion at all. The remaining branches expand per dimension:
    address intervals split into aligned CIDR blocks (at most 62 per
    interval), protocol and port intervals enumerate exact values —
    OpenFlow 1.0 has no port masks, which is exactly why a per-branch
    {e region budget} exists. A branch whose expansion would exceed it
    is {e spilled}: the compiler emits a single punt-to-controller rule
    over the node's remaining space instead, soundly returning that
    region to the reactive path (slower, never wrong).

    A node's plan records its parts, not its rules: each expanded
    interval with its child's plan, then the default group's plan (or
    the spill's punt), with the rule count and coverage they add up
    to. So a policy edit re-plans the nodes it changed, each at the
    cost of its own parts, and takes every other plan from the cache.
    {!compile} then writes the root's plan out beside the last table
    the cache compiled: a rule at a place that table wrote too (the
    same atoms along its path) is that table's entry, and only the
    others build a match.

    Reactive leaves compile to punt rules where they mask lowered
    wildcards, and are pruned where they coincide with the table-miss
    default. The result is {e total}: every flow either hits a static
    entry whose action equals {!Pf.Eval}'s verdict for every context,
    or punts (hits a punt entry / misses) to the controller.

    Priorities live in a band {e below} the controller's reactive
    per-flow entries (default 0x8000) — a reactive flow's cached
    exact-match decision must outrank the compiled punt rule that sent
    its first packet to the controller. An entry is one switch entry on
    every switch: a pass entry jumps to the switch's forwarding table
    (table 1, see {!Core.Controller}), so no entry needs a priority
    beside its own. Priorities descend strictly inside
    [\[priority_floor, 0x7ffe\]] (0x7fff is the controller's guards').
    {!compile} keeps each entry the cache's last table held at the
    priority it had there, and spaces the others evenly in the gaps
    between; when a gap has no room, or the cache is new, it spreads
    the whole table evenly over the band. So {!delta} sends nothing for
    an unchanged entry, and the numbering depends on the cache's
    history; [identxx_ctl compile] prints a first install's. *)

(** What the switch should do with a matching packet, before per-switch
    lowering picks concrete ports. *)
type decision =
  | Decide of Pf.Ast.action
      (** Statically decided: forward (pass) or drop (block). *)
  | Punt  (** Send to the controller: reactive residue. *)

type entry = {
  e_fields : Openflow.Match_fields.t;
  mutable e_priority : int;
      (** Strictly descending by position (see above). Mutable only so
          that {!compile} numbers an entry it has just built in place,
          which builds each new entry once; an entry it returns is
          never written again. *)
  e_decision : decision;
  e_lines : int list;
      (** Possible deciding policy lines (0 = implicit default); empty
          for punts. *)
}

(** A branch left reactive because expanding it would blow the table. *)
type spill = {
  sp_dim : string;  (** ["proto"], ["src"], ["dst"], ["sport"], ["dport"]. *)
  sp_interval : int * int;
  sp_cost : int;  (** Entries an exact expansion would have needed. *)
}

type table = {
  entries : entry list;  (** Highest priority first. *)
  spills : spill list;
  static_coverage : float;
      (** The diagram's, bit for bit its slice's [s_coverage]. *)
  installed_coverage : float;
      (** Volume fraction of flow space actually decided by installed
          static entries — [static_coverage] minus spilled and
          truncated volume. *)
  truncated : bool;  (** The [max_entries] guard replaced a tail. *)
}

type cache
(** Memoizes plans per hash-consed diagram node and level, so
    recompiling after a policy edit re-plans only the changed regions
    (unchanged subdiagrams keep their node ids). It holds the plans the
    last {!compile} used or built and the table it compiled, and
    nothing older: a node the new diagram no longer reaches is dropped
    at the next compile, so the cache stays the size of one policy
    however many it has seen. One cache must only ever see one budget
    configuration. *)

val create_cache : unit -> cache

val default_max_entries : int
(** 4096 — a small hardware TCAM. *)

val default_region_budget : int
(** 512 — per-branch expansion cap; a port range wider than this spills
    to the reactive path. *)

val priority_floor : int
(** Lowest priority the compiler will ever assign (0x5000). The band
    [floor .. 0x7fff] stays below reactive per-flow entries. *)

val proactive_cookie : int
(** Cookie tagging every proactively installed flow-mod, so eviction
    telemetry can tell compiled entries from reactive ones. *)

val compile :
  ?cache:cache -> ?max_entries:int -> ?region_budget:int -> Analysis.Fdd.t -> table
(** Lower a diagram, numbered after the last table [cache] compiled
    (see above). [max_entries] (≤ 4096) bounds the emitted table; when
    exceeded, the lowest-priority tail is replaced by one punt-all
    entry and [truncated] is set.
    @raise Invalid_argument if [max_entries] is outside [1, 4096]. *)

val offload : proactive:bool -> Pf.Env.t -> Analysis.Fdd.t -> Analysis.Fdd.t
(** The static regions a controller may install, as a diagram for
    {!compile}: every {!Analysis.Fdd.Static} leaf that does not qualify
    becomes one fixed {!Analysis.Fdd.Reactive} verdict, and reactive
    leaves are left as they are. With [proactive], a region qualifies
    unless one of its possible deciding lines is a [log] rule, whose
    flows the controller must see to audit them. Without it, only
    regions every possible deciding line of which is a [block quick]
    rule without [log] qualify: the drops that decide at line rate
    whatever the context. Line 0, the implicit default, never qualifies
    there. A [proactive] policy without [log] rules returns [fdd]
    itself, so the compile cache keeps hitting. *)

type delta = { d_add : entry list; d_del : entry list }

val delta : old_:table -> table -> delta
(** Minimal flow-mod step from [old_] to the new table: entries to
    strict-delete and entries to add, each in its table's order.
    Entries are compared by fields, priority and decision. A strict
    delete names its priority (see {!Openflow.Flow_table.remove}), so
    an entry whose fields reappear at another priority is deleted at
    the old one and added at the new one, and an unchanged entry is in
    neither list. Both tables' priorities must be strictly descending,
    as {!compile} makes them: the step is one merge of the two entry
    lists, allocating only for the entries it returns, and it stops
    where the two lists share their rest, as two tables one cache
    compiled in turn share the entries that end both. *)

val lookup : table -> Netcore.Five_tuple.t -> decision
(** The abstract table's verdict for one flow: the decision of the
    highest-priority matching entry, or {!Punt} on a miss. This is the
    reference semantics the differential tests check real
    {!Openflow.Flow_table} lowerings against. *)

val verify : table -> Analysis.Fdd.t -> (int, string) result
(** Translation validation: check the table's decision against the
    diagram's verdict on the witness corner of every enumerated region
    — static regions must agree (punting is allowed only when the table
    spilled or truncated), reactive regions must punt. Returns the
    number of regions checked. *)

val decision_to_string : decision -> string
val fields_to_string : Openflow.Match_fields.t -> string
(** e.g. ["proto tcp from 10.0.0.0/8 port any to any port 80"]. *)

val entry_to_string : entry -> string
