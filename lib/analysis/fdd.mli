(** Forwarding decision diagrams for PF+=2 rulesets.

    {!compile} turns a whole ruleset into a {e reduced, ordered decision
    diagram} over the five header dimensions a rule can constrain, in
    the fixed variable order

    {v proto -> src address -> dst address -> src port -> dst port v}

    Each internal node partitions one dimension into maximal integer
    intervals (a CIDR prefix is an aligned interval, so prefix tests
    need no special casing); leaves are {!verdict}s. Nodes are
    hash-consed and adjacent equal children merged, so the diagram is
    canonical for the fixed order: two rulesets denote the same
    header-space function iff they compile to the same root — the
    NetKAT/FDD idea (frenetic's compiler pipeline) adapted to PF's
    quick/last-match semantics.

    Rules whose outcome depends on [with] clauses, dictionary lookups,
    or host attributes cannot be decided from headers alone. The
    compiler tracks, per point of flow space, {e every} verdict any
    assignment of [with]-clause truth values could produce: when they
    all agree the leaf is {!Static} (with the possible deciding rule
    lines), otherwise {!Reactive} with the lines and classified inputs
    the outcome hinges on. [Static] is exact, not heuristic: a static
    leaf's action equals {!Pf.Eval}'s verdict for every context.

    The diagram is the semantic foundation for equivalence checking
    ({!equiv}, with concrete counterexample flows), change-impact
    analysis ({!diff}), and static-slice extraction ({!static_slice} —
    the input to a proactive flow-table compiler: static regions can be
    installed at switch connect, only the reactive residue needs the
    controller).

    Diagrams live in one global hash-consed store (grown monotonically,
    deduplicated across compiles), so values from different {!compile}
    calls can be compared and combined freely. *)

type t = private int
(** A compiled diagram: its root's id in the shared node store. Ids
    number nodes in the order they were interned. *)

type interval = int * int
(** Inclusive integer interval. *)

(** Why a region of flow space cannot be decided from headers alone. *)
type reason = {
  lines : int list;
      (** Source lines of the conditional rules the verdict may hinge
          on, ascending. *)
  inputs : Pf.Ast.cond_input list;
      (** Classified [with]-clause inputs of those rules. *)
  may_default : bool;
      (** The implicit default is still reachable (every influencing
          conditional rule can fail to match). *)
}

type verdict =
  | Static of { action : Pf.Ast.action; lines : int list }
      (** Every evaluation context yields [action]. [lines] are the
          rules that may be the deciding match (ascending); line [0]
          stands for the implicit default. *)
  | Reactive of reason
      (** The verdict depends on flow-time information. *)

val compile : ?default:Pf.Ast.action -> Pf.Env.t -> t
(** Compile a resolved environment ({!Pf.Env.rules} order = evaluation
    order). [default] is the implicit verdict when no rule matches
    (PF's pass, like {!Pf.Eval.eval}). *)

val compile_rules :
  ?default:Pf.Ast.action ->
  lookup:(string -> Netcore.Prefix.t list option) ->
  Pf.Ast.rule list ->
  t
(** As {!compile} but over a bare rule list with an explicit table
    [lookup]. A rule naming a table [lookup] cannot resolve matches no
    flow (the caller reports the broken table separately). *)

(** {2 Recompiling after an edit}

    A controller's configuration is a list of files, and a reload
    usually changes one of them, leaving every rule before it alone.
    A compile folds the rules into the diagram one at a time; its
    {!steps} record that fold, one step per applied rule, keyed by the
    root the rule was applied to, the rule's per-dimension intervals,
    and its action, line, [quick] and conditional flag. *)

type steps
(** The rule fold of one compile. *)

val no_steps : steps
(** No previous compile: {!recompile} then compiles from scratch. *)

val recompile : ?default:Pf.Ast.action -> steps -> Pf.Env.t -> t * steps
(** [recompile prev env] is [compile env] with its steps. It takes the
    roots of [prev]'s steps for as long as their keys match, and
    applies rules only from the first key that differs. Node interning
    is idempotent, so a reused prefix interns nothing new and the
    result is the same diagram, node for node, as {!compile}'s. The
    pass that turns the fold's states into verdicts shares a memo with
    [prev] when both compiles read the same [with] inputs on the same
    lines, so it too visits only new nodes; otherwise it starts a memo
    of its own. [prev] stays valid: recompiling from it again gives
    the same result. *)

val map_verdicts : (verdict -> verdict) -> t -> t
(** Rewrite every leaf's verdict, rebuilding the diagram canonically.
    Leaves [f] maps to themselves keep their node ids, so a map that
    changes nothing returns the same diagram. *)

val lookup : t -> Netcore.Five_tuple.t -> verdict
(** The verdict for one flow: a walk of at most five nodes with a
    binary search per node — sublinear in ruleset size, unlike
    {!Pf.Eval}'s rule scan. *)

val node_count : t -> int
(** Reachable nodes, leaves included — the diagram-size statistic. *)

(** {2 Equivalence and differential analysis}

    Verdicts are compared by {e outcome}: static-pass, static-block, or
    reactive. Deciding lines and reactive reasons are reporting detail,
    not semantics — two independently written but equivalent policies
    compare equal. *)

type counterexample = {
  flow : Netcore.Five_tuple.t;  (** Lowest differing flow found. *)
  left : verdict;
  right : verdict;
}

val equiv : t -> t -> (unit, counterexample) result
(** [Ok ()] iff the two diagrams give every point of flow space the
    same outcome; otherwise a concrete counterexample flow. This is the
    translation-validation oracle for the proactive flow-table
    compiler. *)

type region = {
  r_proto : interval;
  r_src : interval;
  r_dst : interval;
  r_sport : interval;
  r_dport : interval;
}
(** A product region of flow space (one root-to-leaf path). *)

type delta = { d_region : region; d_left : verdict; d_right : verdict }

type diff_report = {
  deltas : delta list;  (** Example changed regions, at most [limit]. *)
  changed_fraction : float;
      (** Volume fraction of flow space whose outcome changed. *)
  truncated : bool;  (** More changed regions exist than [limit]. *)
}

val diff : ?limit:int -> t -> t -> diff_report
(** Change-impact analysis between two policy versions: exactly the
    flow space whose outcome differs. [limit] caps the example regions
    (default 64); [changed_fraction] is always exact. *)

(** {2 Static slice} *)

type slice = {
  s_static : (region * Pf.Ast.action * int list) list;
      (** Disjoint statically-decided regions with their action and
          possible deciding lines ([0] = default). *)
  s_reactive : (region * reason) list;  (** The reactive residue. *)
  s_coverage : float;
      (** Fraction of the whole flow space (by volume) whose leaf is
          {!Static} — what a proactive compiler could install. *)
  s_truncated : bool;  (** Region enumeration hit [limit]. *)
}

val static_slice : ?limit:int -> t -> slice
(** The proactive/reactive split. [limit] caps the total number of
    enumerated regions (default 4096). *)

val fallthrough : t -> region list
(** The regions where the implicit default may still decide — the
    residual flow space no unconditional rule covers ({!Check}'s
    [default-fallthrough]). *)

(** {2 Regions} *)

val region_witness : region -> Netcore.Five_tuple.t
(** The lowest flow inside a region. *)

val region_to_string : region -> string
(** The region as atoms: [proto … from … port … to … port …], one per
    pair of CIDR blocks its address intervals decompose into. *)

val regions_to_string : region list -> string
(** The atoms of every region, the first four shown, then
    [; ... (N more)]; ["(empty)"] for no region. *)

(** {2 Flow spaces}

    A set of flows: a diagram in the same store whose leaves are {e in}
    and {e out}, canonical like a compiled policy. {!Check} and the
    controller's keep-state demotion reason in it. *)

module Space : sig
  type t

  val empty : t

  val of_rule :
    lookup:(string -> Netcore.Prefix.t list option) -> Pf.Ast.rule -> t
  (** The flows a rule's header constraints cover. [with] conditions
      are not represented, so the result over-approximates the rule's
      match set (it is exact for condition-free rules). A table
      [lookup] returning [None] (unknown table) yields {!empty}. *)

  val union : t -> t -> t
  val inter : t -> t -> t

  val diff : t -> t -> t
  (** [diff a b] is the flows of [a] outside [b]. *)

  val is_empty : t -> bool
  val equal : t -> t -> bool

  val covers : outer:t -> inner:t -> bool
  (** Every flow in [inner] is in [outer]. *)

  val overlaps : t -> t -> bool

  val overlaps_box : t -> interval array -> bool
  (** Whether the space meets a box: one interval per dimension, in
      diagram order (proto, src, dst, sport, dport). Hot paths test
      {!is_empty} first, so that an empty space costs no box. *)

  val witness : t -> Netcore.Five_tuple.t option
  (** The lowest flow in the space, comparing dimensions in diagram
      order, except that tcp, then udp, then icmp are tried before the
      lowest protocol. [None] iff the space is empty. *)

  val to_string : t -> string
  (** The space's regions, as {!regions_to_string}. *)
end

(** {2 Header geometry} *)

val dim_top : int array
(** Inclusive upper bound of each dimension, in diagram order. *)

val width : int -> interval -> float
(** [width level iv] is [iv]'s share of dimension [level]. *)

val prefixes_of_interval : interval -> Netcore.Prefix.t list
(** The fewest aligned CIDR blocks covering an address interval,
    ascending. *)

val prefix_count : interval -> int
(** [List.length (prefixes_of_interval iv)], counted without building
    the blocks: allocates nothing. *)

val lines_to_string : int list -> string
(** Rule lines joined by commas, line [0] as [default]. *)

(** {2 Structural export}

    The diagram's nodes, for downstream compilers that need the node
    structure (not just the flat region enumeration): the flow-table
    compiler factors a node's widest branch into a lower-priority
    wildcard rule, which requires seeing branches, not regions. A
    diagram is read one level at a time, from level 0 (proto) through
    4 (dport); a node id read at level 5 is a leaf. Equal ids at one
    level are identical subdiagrams, so memo tables keyed on
    [(level, id)] survive recompiles of unchanged policy regions.

    [d] read along dimension [level] has {!part_count}[ level d]
    children, as maximal intervals partitioning [[0, top]], ascending,
    adjacent children distinct: part [i] runs from
    [part_hi level d (i - 1) + 1] (0 for the first) to
    [part_hi level d i]. A node that tests a lower dimension is one
    part covering the level, whose child is the node itself. The
    accessors read the node in place and allocate nothing. *)

val part_count : int -> t -> int
(** [part_count level d]: the number of [d]'s parts along [level]. *)

val part_hi : int -> t -> int -> int
(** [part_hi level d i]: the last value of part [i]. *)

val part_child : int -> t -> int -> t
(** [part_child level d i]: the child of part [i]. *)

val leaf : t -> verdict
(** The verdict of a diagram read at level 5.
    @raise Invalid_argument for an internal node. *)

val store_size : unit -> int
(** The nodes interned so far, every compile's: ids [0] to
    [store_size () - 1], in the order they were interned. *)

val of_id : int -> t
(** The node with id [i].
    @raise Invalid_argument unless [0 <= i < store_size ()]. *)
