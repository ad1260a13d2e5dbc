(** A flow-table entry: the rule a flow-mod carried, and what the table
    that installed it keeps beside it. *)

type rule = {
  fields : Match_fields.t;
  priority : int;  (** Higher wins; OpenFlow 1.0 convention. *)
  actions : Action.t list;
  idle_timeout : Sim.Time.t option;
      (** Evict after this much time without a matching packet. *)
  hard_timeout : Sim.Time.t option;
      (** Evict this long after installation regardless of traffic. *)
  cookie : int;  (** Opaque controller tag. *)
}
(** What a flow-mod installs (7 words). A table keeps it by reference,
    so one flow-mod sent to many switches leaves one rule in all their
    tables. *)

val rule :
  ?priority:int ->
  ?idle_timeout:Sim.Time.t ->
  ?hard_timeout:Sim.Time.t ->
  ?cookie:int ->
  fields:Match_fields.t ->
  Action.t list ->
  rule
(** Default priority is 0x8000 (OpenFlow's default), no timeouts. *)

type t = {
  rule : rule;
  installed_at : Sim.Time.t;
  mutable last_hit : Sim.Time.t;
  mutable packets : int;
  mutable bytes : int;
  seq : int;  (** Installation number: newer wins a priority tie. *)
  mutable alive : bool;
  mutable next : t;  (** Next entry of its exact-match chain. *)
}
(** An installed entry (9 words), built by {!Flow_table.add}; [seq],
    [alive] and [next] are written by the table that holds it alone. *)

val hit : t -> now:Sim.Time.t -> size:int -> unit
(** Update counters when a packet matches. *)

val expired : t -> now:Sim.Time.t -> bool
val pp : Format.formatter -> t -> unit
