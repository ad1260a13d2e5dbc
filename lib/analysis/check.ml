(* Whole-ruleset static checks over PF+=2 policies.

   The effective ruleset the controller evaluates is concatenated from
   fragments written by mutually-distrustful parties — the
   administrator's header/footer, application vendors' rules,
   third-party security companies (§3.3-§3.5) — so rules that are
   shadowed, conflicting, or unanswerable are easy to ship and hard to
   spot. These checks reason about rule match-spaces symbolically
   (see {!Fdd.Space}) under real quick/last-match semantics. *)

open Netcore

type severity = Error | Warning | Info

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type finding = {
  line : int;  (** 0 when the finding has no single source line. *)
  severity : severity;
  code : string;
  message : string;
  witness : Five_tuple.t option;
      (** A concrete flow exhibiting the finding, when one exists. *)
}

let finding ?(line = 0) ?witness severity code message =
  { line; severity; code; message; witness }

let has_errors findings = List.exists (fun f -> f.severity = Error) findings

(* --- declaration helpers --- *)

let last_wins l =
  List.fold_left (fun acc (k, v) -> (k, v) :: List.remove_assoc k acc) [] l

let table_defs decls =
  last_wins
    (List.filter_map
       (function Pf.Ast.Table_def (n, items) -> Some (n, items) | _ -> None)
       decls)

let macro_names decls =
  List.filter_map
    (function Pf.Ast.Macro_def (n, _) -> Some n | _ -> None)
    decls

let dict_names decls =
  List.filter_map
    (function Pf.Ast.Dict_def (n, _) -> Some n | _ -> None)
    decls

let intercept_keys decls =
  List.concat_map
    (function
      | Pf.Ast.Intercept_def i -> List.map fst i.Pf.Ast.pairs
      | _ -> [])
    decls

(* --- table resolution with findings instead of hard failure --- *)

(* Resolves every defined table, chasing [Item_ref]s with cycle
   detection. Unlike {!Pf.Env.build}, a broken table produces a finding
   and resolves to [None] so the remaining checks can still run. *)
let resolve_tables decls =
  let defs = table_defs decls in
  let findings = ref [] in
  let rec resolve stack name =
    if List.mem name stack then (
      findings :=
        finding Error "table-cycle"
          (Printf.sprintf "table reference cycle: <%s> -> <%s>"
             (String.concat "> -> <" (List.rev stack))
             name)
        :: !findings;
      None)
    else
      match List.assoc_opt name defs with
      | None ->
          (match stack with
          | parent :: _ ->
              findings :=
                finding Error "undefined-table"
                  (Printf.sprintf
                     "table <%s> (referenced from table <%s>) is never defined"
                     name parent)
                :: !findings
          | [] -> ());
          None
      | Some items ->
          List.fold_left
            (fun acc item ->
              match (acc, item) with
              | None, _ -> None
              | Some acc, Pf.Ast.Item_prefix p -> Some (p :: acc)
              | Some acc, Pf.Ast.Item_ref r -> (
                  match resolve (name :: stack) r with
                  | None -> None
                  | Some sub -> Some (List.rev_append sub acc)))
            (Some []) items
          |> Option.map List.rev
  in
  let resolved = List.map (fun (name, _) -> (name, resolve [] name)) defs in
  (resolved, List.sort_uniq compare !findings)

(* --- undefined references (today Eval only discovers these at flow
   time, deep inside the controller's decision path) --- *)

let undefined_references decls resolved =
  let macros = macro_names decls in
  let dicts = dict_names decls in
  let rules = Pf.Ast.rules decls in
  List.concat_map
    (fun (r : Pf.Ast.rule) ->
      let tables =
        List.filter_map
          (fun name ->
            match List.assoc_opt name resolved with
            | Some (Some _) -> None
            | Some None ->
                (* Defined but broken: the def-level finding covers it. *)
                None
            | None ->
                Some
                  (finding ~line:r.Pf.Ast.line Error "undefined-table"
                     (Printf.sprintf "table <%s> is never defined" name)))
          (Pf.Ast.tables_of_rule r)
      in
      let args =
        List.filter_map
          (function
            | Pf.Ast.Macro_ref name when not (List.mem name macros) ->
                Some
                  (finding ~line:r.Pf.Ast.line Error "undefined-macro"
                     (Printf.sprintf
                        "macro $%s is never defined; evaluation fails at flow \
                         time"
                        name))
            | Pf.Ast.Dict_access { dict; _ }
              when dict <> "src" && dict <> "dst"
                   && not (List.mem dict dicts) ->
                Some
                  (finding ~line:r.Pf.Ast.line Error "undefined-dict"
                     (Printf.sprintf
                        "dictionary @%s is never defined; evaluation fails at \
                         flow time"
                        dict))
            | _ -> None)
          (Pf.Ast.rule_args r)
      in
      tables @ args)
    rules
  |> List.sort_uniq compare

(* --- textual checks: identical rules, unknown functions --- *)

(* Of an identical pair, the redundant one depends on quick: a quick
   earlier rule decides first (the later copy never fires); otherwise
   the later copy always overrides the earlier under last-match — and a
   later quick copy decides with the same verdict the earlier one would
   have left pending. Rules compare up to their source line. *)
let duplicates ~where decls =
  let same (a : Pf.Ast.rule) (b : Pf.Ast.rule) =
    { a with Pf.Ast.line = 0 } = { b with Pf.Ast.line = 0 }
  in
  let rec go acc = function
    | [] -> acc
    | (r : Pf.Ast.rule) :: rest ->
        let dup (later : Pf.Ast.rule) =
          if not (same r later) then None
          else if r.Pf.Ast.quick then
            Some
              (finding ~line:later.Pf.Ast.line Warning "duplicate-rule"
                 (Printf.sprintf
                    "redundant: identical quick rule at %s always decides \
                     first"
                    (where r.Pf.Ast.line)))
          else
            Some
              (finding ~line:r.Pf.Ast.line Warning "duplicate-rule"
                 (Printf.sprintf
                    "redundant: identical rule at %s makes this one \
                     irrelevant under last-match"
                    (where later.Pf.Ast.line)))
        in
        go (List.filter_map dup rest @ acc) rest
  in
  go [] (Pf.Ast.rules decls)

(* A [with] predicate that is not a built-in is legitimate for a
   deployment that registers custom functions, hence a warning rather
   than an {!Pf.Env.build} error. *)
let unknown_functions decls =
  List.concat_map
    (fun (r : Pf.Ast.rule) ->
      List.filter_map
        (fun (fc : Pf.Ast.funcall) ->
          if List.mem fc.Pf.Ast.fname Pf.Fnreg.builtin_names then None
          else
            Some
              (finding ~line:r.Pf.Ast.line Warning "unknown-function"
                 (Printf.sprintf
                    "%s is not a built-in function; evaluation fails unless \
                     a custom function is registered"
                    fc.Pf.Ast.fname)))
        r.Pf.Ast.conds)
    (Pf.Ast.rules decls)

(* --- flow-space checks: shadowing, conflicts, fallthrough --- *)

(* Per-rule analysis record. [space] over-approximates the rule's match
   set ([with] conditions are ignored); [definite] marks rules whose
   space is exact AND whose match is unconditional — only those may
   cover other rules. *)
type rule_info = {
  rule : Pf.Ast.rule;
  space : Fdd.Space.t;
  resolvable : bool;
  definite : bool;
}

let rule_infos decls resolved =
  let lookup name =
    match List.assoc_opt name resolved with Some r -> r | None -> None
  in
  List.map
    (fun (r : Pf.Ast.rule) ->
      let resolvable =
        List.for_all
          (fun name -> lookup name <> None)
          (Pf.Ast.tables_of_rule r)
      in
      let space = Fdd.Space.of_rule ~lookup r in
      { rule = r; space; resolvable; definite = resolvable && Pf.Ast.cond_free r })
    (Pf.Ast.rules decls)

let lines_of ~where infos =
  String.concat ", " (List.map (fun i -> where i.rule.Pf.Ast.line) infos)

(* A rule never decides when (a) earlier unconditional quick rules
   cover its whole space (flows never reach it), or (b) it is not
   quick and every flow it matches is re-matched by a later
   unconditional rule, whose verdict overrides under last-match (a
   later quick rule also overrides: the earlier match never became the
   final verdict). Rules after an unconditional [quick all] are case
   (a). The earlier-quick union is a prefix fold and the later union a suffix
   fold, so each rule costs one coverage test. *)
let shadowing ~where infos =
  let quick_definite i = i.definite && i.rule.Pf.Ast.quick in
  let add keep cover i = if keep i then Fdd.Space.union cover i.space else cover in
  let laters =
    List.fold_right
      (fun i acc -> add (fun i -> i.definite) (List.hd acc) i :: acc)
      infos [ Fdd.Space.empty ]
  in
  let rec go before quick_cover acc infos laters =
    match (infos, laters) with
    | info :: after, _ :: (later :: _ as laters) ->
        let acc =
          if not info.resolvable then acc
          else if Fdd.Space.is_empty info.space then
            finding ~line:info.rule.Pf.Ast.line Warning "unmatchable-rule"
              "no flow can match this rule (its flow-space is empty)"
            :: acc
          else if
            Fdd.Space.covers
              ~outer:(if info.rule.Pf.Ast.quick then Fdd.Space.empty else later)
              ~inner:(Fdd.Space.diff info.space quick_cover)
          then
            let touching keep =
              List.filter (fun i -> keep i && Fdd.Space.overlaps i.space info.space)
            in
            let because =
              match
                ( touching quick_definite (List.rev before),
                  if info.rule.Pf.Ast.quick then []
                  else touching (fun i -> i.definite) after )
              with
              | qb, [] ->
                  Printf.sprintf
                    "earlier quick rules (%s) decide every flow before it \
                     is reached"
                    (lines_of ~where qb)
              | [], lt ->
                  Printf.sprintf
                    "later rules (%s) override it on every flow it matches"
                    (lines_of ~where lt)
              | qb, lt ->
                  Printf.sprintf
                    "earlier quick rules (%s) and later rules (%s) leave \
                     it no flow to decide"
                    (lines_of ~where qb) (lines_of ~where lt)
            in
            finding ~line:info.rule.Pf.Ast.line Warning "shadowed-rule"
              ("this rule never decides a flow: " ^ because)
            :: acc
          else acc
        in
        go (info :: before) (add quick_definite quick_cover info) acc after laters
    | _ -> List.rev acc
  in
  go [] Fdd.Space.empty [] infos laters

(* Two unconditional rules with opposite actions whose spaces partially
   overlap (neither contains the other): the verdict on the overlap is
   decided purely by rule order, which is accidental when the rules
   come from different policy fragments. Containment is excluded
   because PF idiom relies on it (e.g. [block all] then [pass from
   <lan>]). *)
let conflicts ~where infos =
  let definite = List.filter (fun i -> i.definite) infos in
  let rec go acc = function
    | [] -> List.rev acc
    | a :: rest ->
        let acc =
          List.fold_left
            (fun acc b ->
              if a.rule.Pf.Ast.action = b.rule.Pf.Ast.action then acc
              else
                let overlap = Fdd.Space.inter a.space b.space in
                (* Canonical spaces: containment is equality with the
                   overlap. *)
                if
                  Fdd.Space.is_empty overlap
                  || Fdd.Space.equal overlap a.space
                  || Fdd.Space.equal overlap b.space
                then acc
                else
                  finding ~line:b.rule.Pf.Ast.line
                    ?witness:(Fdd.Space.witness overlap) Warning
                    "rule-conflict"
                    (Printf.sprintf
                       "partially overlaps the %s rule at %s with the \
                        opposite action; rule order alone decides the overlap"
                       (match a.rule.Pf.Ast.action with
                       | Pf.Ast.Pass -> "pass"
                       | Pf.Ast.Block -> "block")
                       (where a.rule.Pf.Ast.line))
                  :: acc)
            acc rest
        in
        go acc rest
  in
  go [] definite

(* The residual flow-space no unconditional rule decides: these flows
   fall through to the implicit default (PF's pass, or the deployment's
   default-deny) — what [99-local-footer.control] actually decides.
   Computed from the {!Fdd} residue (the leaves where line 0 is still a
   possible decider), which is exact under quick/last-match semantics,
   instead of the earlier pairwise flow-space subtraction. *)
let default_fallthrough decls resolved =
  let lookup name =
    match List.assoc_opt name resolved with Some r -> r | None -> None
  in
  let fdd = Fdd.compile_rules ~lookup (Pf.Ast.rules decls) in
  match Fdd.fallthrough fdd with
  | [] ->
      [
        finding Info "default-fallthrough"
          "no flow reaches the implicit default: unconditional rules cover \
           the whole flow-space";
      ]
  | first :: _ as regions ->
      [
        finding ~witness:(Fdd.region_witness first) Info "default-fallthrough"
          (Printf.sprintf
             "flows decided by no unconditional rule fall through to the \
              implicit default: %s"
             (Fdd.regions_to_string regions));
      ]

(* --- cross-config key check --- *)

(* Keys every honest daemon answers regardless of configuration (the
   built-in section: process owner, binary identity). *)
let daemon_builtin_keys =
  [
    Identxx.Key_value.user_id;
    Identxx.Key_value.group_id;
    "pid";
    Identxx.Key_value.app_path;
    Identxx.Key_value.app_name;
    "app-name";
    Identxx.Key_value.exe_hash;
  ]

let config_keys (cfg : Identxx.Config.t) =
  List.map (fun (p : Identxx.Key_value.pair) -> p.Identxx.Key_value.key)
    cfg.Identxx.Config.globals
  @ List.concat_map
      (fun (b : Identxx.Config.app_block) ->
        List.map
          (fun (p : Identxx.Key_value.pair) -> p.Identxx.Key_value.key)
          b.Identxx.Config.pairs)
      cfg.Identxx.Config.apps

(* A key queried through [@src]/[@dst] that no daemon configuration
   defines, no controller intercept supplies, and no built-in section
   carries can only ever be answered by a runtime registration — for a
   statically-configured fleet the [with] clause is permanently false
   (a None key makes the condition fail, §3.3). Only meaningful when
   daemon configs are supplied. *)
let unanswerable_keys decls configs =
  if configs = [] then []
  else
    let answerable =
      daemon_builtin_keys
      @ List.concat_map (fun (_, cfg) -> config_keys cfg) configs
      @ intercept_keys decls
    in
    let n = List.length configs in
    List.concat_map
      (fun (r : Pf.Ast.rule) ->
        List.filter_map
          (function
            | Pf.Ast.Dict_access { dict = ("src" | "dst") as dict; key; _ }
              when not (List.mem key answerable) ->
                Some
                  (finding ~line:r.Pf.Ast.line Warning "unanswerable-key"
                     (Printf.sprintf
                        "@%s[%s] can never be answered: none of the %d daemon \
                         config(s) defines '%s', it is not a built-in key, \
                         and no intercept supplies it (the condition is \
                         false unless registered at runtime)"
                        dict key n key))
            | _ -> None)
          (Pf.Ast.rule_args r))
      (Pf.Ast.rules decls)
    |> List.sort_uniq compare

(* --- entry point --- *)

let compare_findings a b =
  match compare a.line b.line with
  | 0 -> (
      match
        compare (severity_rank a.severity) (severity_rank b.severity)
      with
      | 0 -> compare (a.code, a.message) (b.code, b.message)
      | c -> c)
  | c -> c

let run ?(configs = []) ?(where = fun l -> "line " ^ string_of_int l) decls =
  let resolved, table_findings = resolve_tables decls in
  let infos = rule_infos decls resolved in
  table_findings
  @ undefined_references decls resolved
  @ duplicates ~where decls @ unknown_functions decls @ shadowing ~where infos @ conflicts ~where infos
  @ unanswerable_keys decls configs
  @ default_fallthrough decls resolved
  |> List.sort_uniq compare
  |> List.sort compare_findings
