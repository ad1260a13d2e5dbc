(** The enforcement systems compared in §5 and §6, all expressed over
    the same PF engine but with each system's characteristic information
    and structural limits:

    - {b vanilla}: a stateful 5-tuple packet filter. Policies may use
      only network primitives (no [with] clauses).
    - {b Ethane-like}: centralized control with authenticated user
      bindings, but no application-level information (§6): policies may
      reference [userID]/[groupID], which the network itself knows and a
      lying daemon cannot spoof — but nothing else.
    - {b distributed firewall}: policy evaluated at the receiving
      end-host with full local knowledge; a compromised receiver
      enforces nothing, and every packet reaches the host before being
      judged (§6's critique).
    - {b ident++}: the full system; the controller sees whatever the
      daemons report, so a compromised end may substitute an arbitrary
      claim. *)

val vanilla : policy:string -> (Enforcement.t, string) result
(** @return [Error] if the policy fails to parse or uses [with]. *)

val ethane : policy:string -> (Enforcement.t, string) result
(** The policy may use [with] clauses over [userID]/[groupID] only. *)

val vanilla_exn : policy:string -> Enforcement.t
val ethane_exn : policy:string -> Enforcement.t
val distributed_exn : policy:string -> Enforcement.t

val identxx_exn :
  ?attacker_claim:Identxx.Key_value.section ->
  ?keystore:Idcrypto.Sign.keystore ->
  policy:string ->
  unit ->
  Enforcement.t
(** [attacker_claim] is the section a compromised end reports in place
    of the truth (default: claims to be the [system] user running an
    innocuous app). *)
