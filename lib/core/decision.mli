(** The pure decision engine: evaluate a flow against the controller's
    policy given the ident++ responses, independent of any simulated
    network. Used directly by the CLI, the examples and the benchmarks,
    and by {!Controller} once responses are in. *)

open Netcore

type input = {
  flow : Five_tuple.t;
  src_response : Identxx.Response.t option;
  dst_response : Identxx.Response.t option;
}

type t

val create :
  ?default:Pf.Ast.action ->
  ?keystore:Idcrypto.Sign.keystore ->
  ?functions:Pf.Fnreg.t ->
  policy:Policy_store.t ->
  unit ->
  t
(** [default] applies when no rule matches (PF's implicit pass). *)

val keystore : t -> Idcrypto.Sign.keystore
val functions : t -> Pf.Fnreg.t

val decide : t -> input -> (Pf.Eval.verdict, string) result

val decide_exn : t -> input -> Pf.Eval.verdict

val allows : t -> input -> bool
(** Evaluation errors fail closed (block). *)

val explain : t -> input -> string
(** A human-readable account: the verdict plus the matching rule. *)
