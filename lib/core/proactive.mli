(** The proactive flow tables (DESIGN.md §11, §13): the compiled band
    of each switch's table 0 with its guards, and table 1's routes. It
    keeps what was sent and returns what to send next, which the
    controller sends as one control event per switch of its domain. *)

type t

val create : Obs.Registry.t -> labels:Obs.Registry.labels -> t
(** No table and no routes; registers the [identxx_compiler_*] series. *)

val table : t -> Compiler.table
(** The abstract compiled table installed: empty until the first sync. *)

val sync : t -> proactive:bool -> Query_plan.t -> Openflow.Message.to_switch array
(** Compile the environment and diagram of a revision's plan
    ({!Compiler.offload}'s [proactive]; an error or no diagram compiles
    the empty table, so every flow punts and fails closed). The messages
    strict-delete and add the delta, or everything when the keep-state
    spaces changed, then add the guards when the table turns non-empty. *)

val sync_routes :
  t -> Openflow.Topology.t -> (string * Netcore.Ipv4.t) list ->
  Openflow.Message.switch_id -> Openflow.Message.to_switch array
(** [sync_routes t topo hosts dpid] brings [dpid]'s table-1 routes to
    one per reachable host of [hosts] (name, address), out of its port
    toward it: the deletes, then the adds. *)

val reinstall :
  t -> Openflow.Match_fields.t list -> Openflow.Message.to_switch array
(** Delete in table 0 every entry one of the fields covers, a barrier,
    then re-add the compiled entries and guards those deletes took. *)
