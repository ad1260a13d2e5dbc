(** The PF+=2 evaluator.

    Semantics follow PF and §3.3: rules are considered top-down, the
    {e last} matching rule decides, and a matching rule marked [quick]
    short-circuits evaluation. [with] predicates are conjunctive; a
    predicate over an unresolvable value (missing key, absent response)
    is false, so information-dependent [pass] rules fail closed.

    [@src]/[@dst] index the ident++ responses: plain access returns the
    latest (most-trusted) binding, [*@] the comma-joined concatenation
    over all sections. Other [@name] accesses read the configuration's
    [dict] declarations. *)

open Netcore

type ctx = {
  src : Identxx.Response.t option;  (** ident++ response of the flow source. *)
  dst : Identxx.Response.t option;  (** … of the flow destination. *)
  keystore : Idcrypto.Sign.keystore;  (** Trust anchors for [verify]. *)
  functions : Fnreg.t;  (** User-defined predicates. *)
}

val ctx :
  ?src:Identxx.Response.t ->
  ?dst:Identxx.Response.t ->
  ?keystore:Idcrypto.Sign.keystore ->
  ?functions:Fnreg.t ->
  unit ->
  ctx

type verdict = {
  decision : Ast.action;
  matched : Ast.rule option;  (** [None] when the default applied. *)
  keep_state : bool;
  log : bool;  (** The matching rule carried PF's [log] modifier. *)
}

val eval :
  ?default:Ast.action ->
  Env.t ->
  ctx ->
  Five_tuple.t ->
  (verdict, string) result
(** Evaluate a flow. [default] (PF's implicit pass, overridable) applies
    when no rule matches. Errors report unresolvable configuration
    (unknown function, malformed [allowed] rules, bad numeric use). *)

type trace_step = {
  rule : Ast.rule;
  matched : bool;
  decided : bool;  (** This step set the (possibly overridden) verdict. *)
}

val trace :
  ?default:Ast.action -> Env.t -> ctx -> Five_tuple.t ->
  (trace_step list * verdict, string) result
(** Like {!eval} but records how every rule fared — the policy
    debugger behind [identxx_ctl eval --trace]. A [quick] match
    truncates the trace, exactly as it truncates evaluation. *)
