open Netcore

type ctx = {
  src : Identxx.Response.t option;
  dst : Identxx.Response.t option;
  keystore : Idcrypto.Sign.keystore;
  functions : Fnreg.t;
}

let ctx ?src ?dst ?keystore ?functions () =
  (* Defaults are built only when missing: [Option.value ~default]
     would build them on every call. *)
  {
    src;
    dst;
    keystore =
      (match keystore with Some k -> k | None -> Idcrypto.Sign.keystore ());
    functions = (match functions with Some f -> f | None -> Fnreg.create ());
  }

type verdict = {
  decision : Ast.action;
  matched : Ast.rule option;
  keep_state : bool;
  log : bool;
}

exception Eval_error of string

let error fmt = Format.kasprintf (fun m -> raise (Eval_error m)) fmt

let allowed_depth_limit = 4

(* Marks an argument that does not resolve (missing key, absent
   response). Compared physically: no string a policy or an answer
   holds is this one. *)
let unresolved = String.make 1 '\000'

let resolved v = v != unresolved

(* A response's value for [key], or {!unresolved}: the latest binding,
   or with [star] every binding joined by commas. *)
let answer_value ~star key = function
  | None -> unresolved
  | Some r -> (
      if star then
        match Identxx.Response.all_values r key with
        | [] -> unresolved
        | vs -> String.concat "," vs
      else
        match Identxx.Response.latest r key with
        | Some v -> v
        | None -> unresolved)

(* An argument's value, or {!unresolved}. *)
let value env ctx (arg : Ast.arg) =
  match arg with
  | Ast.Lit s -> s
  | Ast.Macro_ref name -> (
      match Env.macro_exn env name with
      | v -> v
      | exception Not_found -> error "undefined macro $%s" name)
  | Ast.Dict_access { star; dict = "src"; key } -> answer_value ~star key ctx.src
  | Ast.Dict_access { star; dict = "dst"; key } -> answer_value ~star key ctx.dst
  | Ast.Dict_access { dict; key; _ } -> (
      match Env.dict env dict with
      | Some entries -> (
          match List.assoc_opt key entries with
          | Some v -> v
          | None -> unresolved)
      | None -> error "undefined dictionary @%s" dict)

let arg_value env ctx arg =
  let v = value env ctx arg in
  if resolved v then Some v else None

let is_digit c = c >= '0' && c <= '9'

(* [int_of_string_opt] after a trim, which reads only a sign or a digit
   first: other strings skip the conversion and its exception. *)
let as_int s =
  let s = String.trim s in
  if s <> "" && (is_digit s.[0] || s.[0] = '-' || s.[0] = '+') then
    int_of_string_opt s
  else None

let numeric_cmp op a b =
  match (as_int a, as_int b) with
  | Some x, Some y -> op (compare x y) 0
  | _ -> false

(* A two-argument builtin over resolved values. [member(v, l)]: some
   item of [v] is in [l]; [includes(l, x)]: [x] is an item of [l]. A
   list the policy wrote is split already; an answer's is walked in
   place. *)
let binary env name a b =
  match name with
  | "eq" -> (
      match (as_int a, as_int b) with
      | Some x, Some y -> x = y
      | _ -> String.equal a b)
  | "gt" -> numeric_cmp ( > ) a b
  | "lt" -> numeric_cmp ( < ) a b
  | "gte" -> numeric_cmp ( >= ) a b
  | "lte" -> numeric_cmp ( <= ) a b
  | "member" -> (
      match Env.spec_list env b with
      | items -> Items.any_in a items
      | exception Not_found -> Items.any_in_spec a b)
  | _ (* includes *) -> (
      match Env.multi_list env a with
      | items -> Items.mem items b
      | exception Not_found -> Items.has a b)

let rec in_prefixes ip = function
  | [] -> false
  | p :: rest -> Prefix.mem ip p || in_prefixes ip rest

(* Stands for "no rule matched yet"; compared physically. *)
let no_rule =
  {
    Ast.action = Ast.Pass;
    quick = false;
    log = false;
    proto = None;
    from_ = Ast.endpoint_any;
    to_ = Ast.endpoint_any;
    conds = [];
    keep_state = false;
    line = 0;
  }

let default_verdict decision =
  { decision; matched = None; keep_state = false; log = false }

let default_pass = default_verdict Ast.Pass
let default_block = default_verdict Ast.Block

let arity (fc : Ast.funcall) n =
  if List.length fc.args <> n then
    error "%s expects %d arguments, got %d (line use)" fc.fname n
      (List.length fc.args)

let rec eval_funcall ~depth env ctx flow (fc : Ast.funcall) =
  match fc.fname with
  | "eq" | "gt" | "lt" | "gte" | "lte" | "member" | "includes" -> (
      arity fc 2;
      (* Read straight off the call: only a user function receives its
         arguments as a list. *)
      match fc.args with
      | [ a; b ] ->
          let a = value env ctx a in
          let b = value env ctx b in
          resolved a && resolved b && binary env fc.fname a b
      | _ -> false)
  | "verify" -> (
      if List.length fc.args < 3 then
        error "verify expects at least 3 arguments";
      match List.map (value env ctx) fc.args with
      | signature :: public :: data ->
          resolved signature && resolved public
          && List.for_all resolved data
          && Idcrypto.Sign.verify ctx.keystore ~public ~signature data
      | _ -> false)
  | "allowed" -> (
      arity fc 1;
      if depth >= allowed_depth_limit then
        error "allowed() nesting exceeds depth %d" allowed_depth_limit;
      match List.map (value env ctx) fc.args with
      | [ rules_text ] when resolved rules_text -> (
          match Env.requirement env rules_text with
          | Error e -> error "allowed(): %s" e
          | Ok rules ->
              (* Fail closed: a flow no rule mentions is NOT allowed. *)
              let verdict =
                eval_rules ~depth:(depth + 1) ~default:Ast.Block env ctx flow
                  rules
              in
              verdict.decision = Ast.Pass)
      | _ -> false)
  | name -> (
      match Fnreg.find ctx.functions name with
      | Some fn -> fn (List.map (arg_value env ctx) fc.args)
      | None -> error "unknown function %s" name)

and addr_matches env (spec : Ast.addr_spec) ip =
  let base =
    match spec.addr with
    | Ast.Addr_any -> true
    | Ast.Addr_prefix p -> Prefix.mem ip p
    | Ast.Addr_table name -> (
        match Env.table_exn env name with
        | prefixes -> in_prefixes ip prefixes
        | exception Not_found -> error "unknown table <%s>" name)
    | Ast.Addr_list prefixes -> in_prefixes ip prefixes
  in
  if spec.negated then not base else base

and endpoint_matches env (spec : Ast.endpoint_spec) ip port =
  (match spec.addr with None -> true | Some a -> addr_matches env a ip)
  &&
  match spec.port with
  | None -> true
  | Some (Ast.Port_eq p) -> p = port
  | Some (Ast.Port_range (lo, hi)) -> lo <= port && port <= hi

and rule_matches ~depth env ctx (flow : Five_tuple.t) (rule : Ast.rule) =
  (match rule.proto with
  | None -> true
  | Some p -> Proto.equal p flow.proto)
  && endpoint_matches env rule.from_ flow.src flow.src_port
  && endpoint_matches env rule.to_ flow.dst flow.dst_port
  && conds_hold ~depth env ctx flow rule.conds

and conds_hold ~depth env ctx flow = function
  | [] -> true
  | fc :: rest ->
      eval_funcall ~depth env ctx flow fc && conds_hold ~depth env ctx flow rest

(* The last matching rule from [rules] on, [last] when none matches
   ({!no_rule} before the first match); a [quick] match ends the walk. *)
and deciding_rule ~depth env ctx flow last = function
  | [] -> last
  | rule :: rest ->
      if rule_matches ~depth env ctx flow rule then
        if rule.Ast.quick then rule
        else deciding_rule ~depth env ctx flow rule rest
      else deciding_rule ~depth env ctx flow last rest

and eval_rules ~depth ~default env ctx flow rules =
  let rule = deciding_rule ~depth env ctx flow no_rule rules in
  if rule == no_rule then
    match default with Ast.Pass -> default_pass | Ast.Block -> default_block
  else
    {
      decision = rule.Ast.action;
      matched = Some rule;
      keep_state = rule.Ast.keep_state;
      log = rule.Ast.log;
    }

let eval ?(default = Ast.Pass) env ctx flow =
  try Ok (eval_rules ~depth:0 ~default env ctx flow (Env.rules env))
  with Eval_error msg -> Error msg

type trace_step = { rule : Ast.rule; matched : bool; decided : bool }

let trace ?(default = Ast.Pass) env ctx flow =
  try
    let steps = ref [] in
    let verdict = ref { decision = default; matched = None; keep_state = false; log = false } in
    let rec go = function
      | [] -> ()
      | rule :: rest ->
          let matched = rule_matches ~depth:0 env ctx flow rule in
          steps := { rule; matched; decided = matched } :: !steps;
          if matched then begin
            verdict :=
              {
                decision = rule.Ast.action;
                matched = Some rule;
                keep_state = rule.Ast.keep_state;
                log = rule.Ast.log;
              };
            if not rule.Ast.quick then go rest
          end
          else go rest
    in
    go (Env.rules env);
    (* Only the verdict's rule keeps [decided]; earlier matches were
       overridden. *)
    let final = !verdict in
    let steps =
      List.rev_map
        (fun s ->
          {
            s with
            decided =
              (match final.matched with
              | Some r -> s.rule == r
              | None -> false);
          })
        !steps
    in
    Ok (steps, final)
  with Eval_error msg -> Error msg
