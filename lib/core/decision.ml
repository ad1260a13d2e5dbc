open Netcore

type input = {
  flow : Five_tuple.t;
  src_response : Identxx.Response.t option;
  dst_response : Identxx.Response.t option;
}

type t = {
  default : Pf.Ast.action option;
      (* Built once: an optional argument passed as [~default] would be
         boxed on every decision. *)
  keystore : Idcrypto.Sign.keystore;
  functions : Pf.Fnreg.t;
  policy : Policy_store.t;
}

let create ?(default = Pf.Ast.Pass) ?keystore ?functions ~policy () =
  {
    default = Some default;
    keystore =
      (match keystore with Some k -> k | None -> Idcrypto.Sign.keystore ());
    functions =
      (match functions with Some f -> f | None -> Pf.Fnreg.create ());
    policy;
  }

let keystore t = t.keystore

let decide t input =
  match Policy_store.env t.policy with
  | Error _ as e -> e
  | Ok env ->
      let ctx =
        {
          Pf.Eval.src = input.src_response;
          dst = input.dst_response;
          keystore = t.keystore;
          functions = t.functions;
        }
      in
      Pf.Eval.eval ?default:t.default env ctx input.flow

let decide_exn t input =
  match decide t input with
  | Ok v -> v
  | Error e -> invalid_arg ("Decision: " ^ e)

let allows t input =
  match decide t input with
  | Ok v -> v.Pf.Eval.decision = Pf.Ast.Pass
  | Error _ -> false

let explain flow = function
  | Error e -> Printf.sprintf "%s => error: %s (fails closed)" (Five_tuple.to_string flow) e
  | Ok v ->
      let action =
        match v.Pf.Eval.decision with Pf.Ast.Pass -> "pass" | Pf.Ast.Block -> "block"
      in
      let why =
        match v.Pf.Eval.matched with
        | None -> "default"
        | Some rule -> Printf.sprintf "line %d: %s" rule.Pf.Ast.line (Pf.Pretty.rule rule)
      in
      Printf.sprintf "%s => %s (%s)" (Five_tuple.to_string flow) action why
