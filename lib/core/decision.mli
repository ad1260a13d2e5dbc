(** The pure decision engine: evaluate a flow against the controller's
    policy given the ident++ responses, independent of any simulated
    network. Used directly by the examples and the benchmarks, and by
    {!Controller} once responses are in; the CLI prints its verdicts
    with {!explain}. *)

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

val decide : t -> input -> (Pf.Eval.verdict, string) result

val decide_exn : t -> input -> Pf.Eval.verdict

val allows : t -> input -> bool
(** Evaluation errors fail closed (block). *)

val explain : Five_tuple.t -> (Pf.Eval.verdict, string) result -> string
(** A human-readable account of a flow's {!decide} result: the verdict
    plus the matching rule, or the error it fails closed on. *)
