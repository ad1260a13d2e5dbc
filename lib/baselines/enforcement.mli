(** A uniform interface over enforcement systems so benchmarks and the
    §5 security-comparison experiment drive them interchangeably. *)

type t = {
  name : string;
  admits : Flow_info.t -> bool;
      (** Does a packet of this flow reach its destination? This folds
          in both the policy decision and the system's structural
          weaknesses (e.g. a distributed firewall on a compromised
          receiving host enforces nothing). *)
}

type score = {
  total : int;
  admitted : int;
  false_allows : int;  (** Admitted but not legitimate. *)
  false_denies : int;  (** Legitimate but denied. *)
}

val score : t -> Flow_info.t list -> score
val accuracy : score -> float
(** Fraction of flows decided according to intent. *)
