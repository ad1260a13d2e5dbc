(** The controller's audit log.

    Delegation only works because the administrator can "log and audit
    the delegates' actions, and revoke the delegation if needed" (§1).
    Every flow decision is recorded here together with the rule that
    decided it and a summary of the end-host information it was based
    on; rules carrying PF's [log] modifier flag their entries for
    attention.

    The log is on for every flow, so an entry points at what it records
    rather than copying it: the matched rule is the policy's own value,
    and equal summaries (flows of one process carry equal pairs) share
    one list, interned in a per-log table that is emptied whenever it
    would hold more summaries than the log holds entries; an answer's
    summary is found there without being copied ({!record}).

    The log is a ring of columns, not a list of records: a held entry is
    one row of six words (the flow packed in two ints,
    {!Netcore.Five_tuple.pack_src} with the decision and [log] bits
    above it and {!Netcore.Five_tuple.pack_dst}, the time, and pointers
    to the rule and both summaries), plus a seventh, the trace id, only once a traced
    decision has been recorded. The rows double up to the capacity, so
    a log costs 6 to 12 words an entry beside what it shares, and
    {!entries}, {!flagged} and {!pp} build their [entry] values when
    called. *)

open Netcore

type entry = {
  at : Sim.Time.t;
  flow : Five_tuple.t;
  decision : Pf.Ast.action;
  rule : Pf.Ast.rule option;
      (** The matching rule, shared with the policy that decided (an
          entry keeps a replaced policy's rule alive);
          {!Pf.Pretty.rule} prints it. *)
  flagged : bool;  (** The rule carried the [log] modifier. *)
  src_info : (string * string) list;
      (** Interesting response pairs, shared by every entry (since the
          last trim) whose summary is equal. *)
  dst_info : (string * string) list;
  trace_id : string option;
      (** The flow-setup trace this decision belongs to, when the
          controller traced it — the join key between the audit log and
          exported spans. *)
}

type t

val create : ?capacity:int -> unit -> t
(** Keeps exactly the most recent [capacity] entries (default 10000). *)

val record :
  ?trace_id:string ->
  t ->
  at:Sim.Time.t ->
  flow:Five_tuple.t ->
  verdict:Pf.Eval.verdict ->
  src:Identxx.Response.t option ->
  dst:Identxx.Response.t option ->
  unit
(** Add the decision's entry. Each answer's summary — the
    {!interesting_keys} it binds, in that order, each with its latest
    value — is looked up among the interned ones by hashing and
    comparing its values where they sit in the payload; only a summary
    not interned yet is copied out, as a list. A record whose answers'
    summaries are interned allocates nothing once the log's rows have
    grown to hold it. *)

val entries : t -> entry list
(** Newest first, built on each call: the rules and summaries are the
    recorded ones, physically. *)

val length : t -> int
(** The entries held: [List.length (entries t)], in O(1). *)

val rule_line : entry -> int option
(** The matching rule's line in the concatenated policy. *)

val summaries : t -> int
(** Distinct summaries interned now: never more than the entries the
    log holds. *)

(** {2 Rejected answers}

    An ident++ answer the controller refused to believe settles nothing,
    so it never reaches a decision entry; it is logged here instead. *)

type rejection = {
  r_at : Sim.Time.t;
  r_flow : Five_tuple.t;  (** The pending flow the answer named. *)
  r_host : Ipv4.t;  (** The address the answer came from. *)
  r_signer : string option;  (** The signer it claimed, when signed. *)
  r_reason : string;
      (** ["unauthenticated"] (unsigned, or a tag that does not verify),
          ["stale-binding"] (echoed addresses or nonce are not this
          query's) or ["unbound-signer"] (the signer may not answer for
          [r_host]). *)
}

val record_rejection :
  t -> at:Sim.Time.t -> flow:Five_tuple.t -> host:Ipv4.t -> ?signer:string ->
  string -> unit
(** Log a rejected answer with its reason. Kept to the same capacity as
    decision entries. *)

val rejections : t -> rejection list
(** Newest first. *)

val flagged : t -> entry list
(** Only entries whose rule carried [log]. *)

val count : t -> int
val blocked_count : t -> int
val clear : t -> unit
val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit

val interesting_keys : string list
(** The response keys summarized into entries: userID, groupID, name,
    version, rule-maker. *)
