(** Actions a flow-table entry applies to matching packets (§3.1):
    drop, forward out ports, flood, send to the controller, or continue
    in a later table. *)

type t =
  | Output of int  (** Forward out a specific port. *)
  | Flood  (** Forward out every port except the ingress one. *)
  | To_controller  (** Encapsulate and send to the OpenFlow controller. *)
  | Drop
  | Goto_table of int  (** Continue in a later table ({!Switch.process}). *)

val drop : t list
(** The canonical "no actions" drop list. *)

val output : int -> t list
(** [[Output p]]. Below port 256 the list is shared, so a caller that
    installs one output per hop allocates none. *)

val is_drop : t list -> bool
(** True when the list forwards nowhere (empty or explicit [Drop]). *)

val output_ports : t list -> int list
val pp_list : Format.formatter -> t list -> unit
