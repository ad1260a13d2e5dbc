(* Flow spaces on the decision diagram and whole-ruleset static
   checks: the analysis library that backs `identxx_ctl analyze lint`
   and `dune build @lint`. *)

open Netcore
module S = Analysis.Fdd.Space
module C = Analysis.Check

let prefix = Prefix.of_string

let parse_rules s =
  match Pf.Parser.parse s with
  | Ok decls -> decls
  | Error e -> Alcotest.failf "parse error: %s" e

let env_of s =
  match Pf.Env.of_string s with
  | Ok env -> env
  | Error e -> Alcotest.failf "env error: %s" e

let space_of_rule ?(tables = []) s =
  match parse_rules s with
  | [ Pf.Ast.Rule_decl r ] ->
      S.of_rule ~lookup:(fun n -> List.assoc_opt n tables) r
  | _ -> Alcotest.fail "expected a single rule"

let findings_of ?configs s = C.run ?configs (parse_rules s)
let find_code c fs = List.find_opt (fun (f : C.finding) -> f.C.code = c) fs

let has_code c fs =
  Alcotest.(check bool) (c ^ " reported") true (find_code c fs <> None)

let no_code c fs =
  Alcotest.(check bool) (c ^ " absent") true (find_code c fs = None)

(* --- space algebra --- *)

let test_space_algebra () =
  let a = space_of_rule "pass from 10.0.0.0/8 to any port 80:90" in
  let b = space_of_rule "block from 10.0.0.0/16 to any port 85" in
  Alcotest.(check bool) "overlap" true (S.overlaps a b);
  Alcotest.(check bool) "b inside a" true (S.covers ~outer:a ~inner:b);
  Alcotest.(check bool) "a not inside b" false (S.covers ~outer:b ~inner:a);
  Alcotest.(check bool) "a \\ a empty" true (S.is_empty (S.diff a a));
  let residual = S.diff a b in
  Alcotest.(check bool) "residual non-empty" false (S.is_empty residual);
  Alcotest.(check bool) "residual misses b" false (S.overlaps residual b);
  Alcotest.(check bool)
    "residual ∪ b ⊇ a" true
    (S.covers ~outer:(S.union residual b) ~inner:a)

let test_space_witness () =
  let s = space_of_rule "pass proto udp from 10.0.0.0/8 to 192.168.1.0/24 port 53" in
  (match S.witness s with
  | None -> Alcotest.fail "expected witness"
  | Some w ->
      Alcotest.(check bool) "witness in src" true
        (Prefix.mem w.Five_tuple.src (prefix "10.0.0.0/8"));
      Alcotest.(check bool) "witness in dst" true
        (Prefix.mem w.Five_tuple.dst (prefix "192.168.1.0/24"));
      Alcotest.(check int) "witness dport" 53 w.Five_tuple.dst_port;
      Alcotest.(check bool) "witness proto" true
        (w.Five_tuple.proto = Proto.Udp));
  Alcotest.(check bool) "empty has none" true
    (S.witness S.empty = None)

let test_space_negation () =
  let s = space_of_rule "pass from !10.0.0.0/8 to any" in
  let inside = space_of_rule "pass from 10.1.2.0/24 to any" in
  let outside = space_of_rule "pass from 192.168.0.0/16 to any" in
  Alcotest.(check bool) "negation excludes 10/8" false (S.overlaps s inside);
  Alcotest.(check bool) "negation keeps the rest" true
    (S.covers ~outer:s ~inner:outside)

let test_space_of_table_rule () =
  let tables = [ ("lan", [ prefix "10.0.0.0/8"; prefix "192.168.0.0/16" ]) ] in
  let s = space_of_rule ~tables "pass from <lan> to any" in
  Alcotest.(check bool) "covers both member prefixes" true
    (S.covers ~outer:s
       ~inner:(S.union
                 (space_of_rule "pass from 10.0.0.0/8 to any")
                 (space_of_rule "pass from 192.168.0.0/16 to any")));
  Alcotest.(check bool) "unknown table is empty" true
    (S.is_empty (space_of_rule "pass from <ghost> to any"))

let test_space_to_string () =
  let s = space_of_rule "pass proto tcp from 10.0.0.0/7 to any port 22" in
  Alcotest.(check string)
    "atoms" "proto tcp from 10.0.0.0/7 port any to 0.0.0.0/0 port 22"
    (S.to_string s);
  Alcotest.(check string) "empty" "(empty)" (S.to_string S.empty)

(* --- random condition-free rules --- *)

let lan_decl = "table <lan> { 10.1.0.0/16 192.168.0.0/16 }\n"
let lan_lookup = function
  | "lan" -> Some [ prefix "10.1.0.0/16"; prefix "192.168.0.0/16" ]
  | _ -> None

(* Overlapping prefixes, ports and protocols, so random rules nest,
   cross and miss each other. *)
let addrs =
  [ "any"; "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24"; "10.1.2.128/25";
    "10.1.2.3"; "192.168.0.0/16"; "0.0.0.0/1"; "!10.0.0.0/8";
    "!10.1.2.0/24"; "{ 10.1.2.0/24, 192.168.0.0/16 }"; "<lan>"; "!<lan>";
    "!any" ]

let ports =
  [ ""; " port 22"; " port 80"; " port 80:90"; " port 85:100";
    " port 0:1023"; " port 65535"; " port 1000:2000" ]

let protos = [ ""; " proto tcp"; " proto udp"; " proto icmp" ]

type rule_parts = {
  block : bool;
  quick : bool;
  proto : string;
  src : string;
  sport : string;
  dst : string;
  dport : string;
}

let rule_text ?(as_pass = false) r =
  Printf.sprintf "%s%s%s from %s%s to %s%s"
    (if r.block && not as_pass then "block" else "pass")
    (if r.quick then " quick" else "")
    r.proto r.src r.sport r.dst r.dport

let gen_rule =
  QCheck.Gen.(
    map
      (fun ((block, quick, proto), (src, sport), (dst, dport)) ->
        { block; quick; proto; src; sport; dst; dport })
      (triple
         (triple bool bool (oneofl protos))
         (pair (oneofl addrs) (oneofl ports))
         (pair (oneofl addrs) (oneofl ports))))

let parse_rule text =
  match parse_rules (lan_decl ^ text) with
  | [ _; Pf.Ast.Rule_decl r ] -> r
  | _ -> Alcotest.failf "expected one rule: %s" text

(* Per dimension: every boundary of the pools above and its
   neighbours, so sampled points hit region corners. *)
let corner_values =
  let addr_bounds =
    List.concat_map
      (fun p ->
        let p = prefix p in
        let lo = Ipv4.to_int (Prefix.first p) and hi = Ipv4.to_int (Prefix.last p) in
        [ lo; hi; lo - 1; hi + 1 ])
      [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24"; "10.1.2.128/25";
        "10.1.2.3/32"; "192.168.0.0/16"; "0.0.0.0/1" ]
    |> List.filter (fun v -> v >= 0 && v <= 0xFFFF_FFFF)
  in
  let port_bounds =
    List.concat_map
      (fun (lo, hi) -> [ lo; hi; lo - 1; hi + 1 ])
      [ (22, 22); (80, 80); (80, 90); (85, 100); (0, 1023); (65535, 65535); (1000, 2000) ]
    |> List.filter (fun v -> v >= 0 && v <= 0xFFFF)
  in
  [| [ 0; 1; 5; 6; 7; 17; 255 ]; addr_bounds; addr_bounds; port_bounds; port_bounds |]

let gen_point =
  QCheck.Gen.(
    let dim top corners =
      frequency [ (3, oneofl corners); (1, int_range 0 top) ]
    in
    map
      (fun ((proto, src, dst), (sp, dp)) ->
        Five_tuple.make ~proto:(Proto.of_int proto) ~src:(Ipv4.of_int src)
          ~dst:(Ipv4.of_int dst) ~src_port:sp ~dst_port:dp)
      (pair
         (triple (dim 255 corner_values.(0)) (dim 0xFFFF_FFFF corner_values.(1))
            (dim 0xFFFF_FFFF corner_values.(2)))
         (pair (dim 0xFFFF corner_values.(3)) (dim 0xFFFF corner_values.(4)))))

let mem s (fl : Five_tuple.t) =
  let pt v = (v, v) in
  S.overlaps_box s
    [|
      pt (Proto.to_int fl.proto); pt (Ipv4.to_int fl.src); pt (Ipv4.to_int fl.dst);
      pt fl.src_port; pt fl.dst_port;
    |]

(* [Fdd.prefix_count] counts the blocks [Fdd.prefixes_of_interval]
   builds, on intervals drawn near aligned boundaries and anywhere. *)
let prop_prefix_count =
  let top = (1 lsl 32) - 1 in
  let gen_addr =
    QCheck.Gen.(
      oneof
        [
          int_bound top;
          map2 (fun k d -> max 0 (min top ((1 lsl k) + d))) (int_bound 32) (int_range (-2) 2);
        ])
  in
  QCheck.Test.make ~name:"prefix count agrees with the prefix list" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_addr gen_addr) ~print:QCheck.Print.(pair int int))
    (fun (a, b) ->
      let iv = (min a b, max a b) in
      Analysis.Fdd.prefix_count iv = List.length (Analysis.Fdd.prefixes_of_interval iv))

(* The space of a rule is what a one-rule pass ruleset with default
   block passes; the set operations are the pointwise connectives; a
   witness lies in its space and exists iff the space is non-empty. *)
let prop_space_ops =
  QCheck.Test.make ~name:"space operations agree with Eval pointwise"
    ~count:300
    (QCheck.make
       QCheck.Gen.(triple gen_rule gen_rule (list_size (return 40) gen_point))
       ~print:(fun (a, b, _) -> rule_text a ^ " / " ^ rule_text b))
    (fun (ra, rb, points) ->
      let a = S.of_rule ~lookup:lan_lookup (parse_rule (rule_text ra)) in
      let b = S.of_rule ~lookup:lan_lookup (parse_rule (rule_text rb)) in
      let env =
        match Pf.Env.of_string (lan_decl ^ rule_text ~as_pass:true ra) with
        | Ok env -> env
        | Error e -> QCheck.Test.fail_reportf "env: %s" e
      in
      let passes fl =
        match Pf.Eval.eval ~default:Pf.Ast.Block env (Pf.Eval.ctx ()) fl with
        | Ok v -> v.Pf.Eval.decision = Pf.Ast.Pass
        | Error e -> QCheck.Test.fail_reportf "eval: %s" e
      in
      let u = S.union a b and i = S.inter a b and d = S.diff a b in
      let witness_ok s =
        match S.witness s with
        | None -> S.is_empty s
        | Some w -> (not (S.is_empty s)) && mem s w
      in
      List.for_all
        (fun fl ->
          let ina = mem a fl and inb = mem b fl in
          ina = passes fl
          && mem u fl = (ina || inb)
          && mem i fl = (ina && inb)
          && mem d fl = (ina && not inb))
        points
      && List.for_all witness_ok [ a; b; u; i; d ])

(* --- whole-ruleset checks --- *)

let test_shadowed_by_quick () =
  let fs = findings_of "block quick from 10.0.0.0/8 to any\npass from 10.0.0.0/16 to any" in
  has_code "shadowed-rule" fs;
  (* the shadowed rule's own conds don't matter: it still can't fire *)
  let fs =
    findings_of
      "block quick from 10.0.0.0/8 to any\n\
       pass from 10.0.0.0/16 to any with eq(@src[name], ssh)"
  in
  has_code "shadowed-rule" fs;
  (* a conditional quick rule can't shadow: it may not match *)
  let fs =
    findings_of
      "block quick from 10.0.0.0/8 to any with eq(@src[name], worm)\n\
       pass from 10.0.0.0/16 to any"
  in
  no_code "shadowed-rule" fs

let test_shadowed_by_last_match () =
  (* non-quick rule always overridden by a later covering rule *)
  let fs = findings_of "pass from 10.0.0.0/16 to any port 22\nblock from 10.0.0.0/8 to any" in
  has_code "shadowed-rule" fs;
  (* …but a later partial cover leaves it live *)
  let fs = findings_of "pass from 10.0.0.0/16 to any\nblock from 10.0.1.0/24 to any" in
  no_code "shadowed-rule" fs;
  (* quick protects against later rules *)
  let fs = findings_of "pass quick from 10.0.0.0/16 to any port 22\nblock from 10.0.0.0/8 to any" in
  no_code "shadowed-rule" fs

let test_conflicts () =
  (* partial overlap with opposite actions: conflict with a witness *)
  let fs = findings_of "pass from 10.0.0.0/8 to any port 80:90\nblock from any to any port 85:100" in
  (match find_code "rule-conflict" fs with
  | None -> Alcotest.fail "expected rule-conflict"
  | Some f ->
      (match f.C.witness with
      | None -> Alcotest.fail "conflict needs a witness"
      | Some w ->
          Alcotest.(check bool) "witness src in 10/8" true
            (Prefix.mem w.Five_tuple.src (prefix "10.0.0.0/8"));
          Alcotest.(check bool) "witness port in overlap" true
            (w.Five_tuple.dst_port >= 85 && w.Five_tuple.dst_port <= 90)));
  (* containment is the PF idiom (block all + pass from <lan>): no conflict *)
  let fs = findings_of "block all\npass from 10.0.0.0/8 to any" in
  no_code "rule-conflict" fs;
  (* same action: no conflict *)
  let fs = findings_of "pass from 10.0.0.0/8 to any port 80:90\npass from any to any port 85:100" in
  no_code "rule-conflict" fs

let test_table_cycle () =
  let fs =
    findings_of
      "table <a> { <b> }\ntable <b> { <a> }\npass from <a> to any"
  in
  has_code "table-cycle" fs;
  Alcotest.(check bool) "cycle is an error" true (C.has_errors fs);
  (* nested refs that terminate resolve fine *)
  let fs =
    findings_of
      "table <base> { 10.0.0.0/8 }\ntable <all> { <base> 192.168.0.0/16 }\n\
       block all\npass from <all> to any"
  in
  no_code "table-cycle" fs;
  no_code "undefined-table" fs

let test_undefined_references () =
  let fs = findings_of "pass from <nowhere> to any" in
  has_code "undefined-table" fs;
  let fs = findings_of "pass all with member(@src[name], $badmacro)" in
  has_code "undefined-macro" fs;
  Alcotest.(check bool) "undefined refs are errors" true (C.has_errors fs);
  let fs = findings_of "pass all with member(@mydict[k], x)" in
  has_code "undefined-dict" fs;
  no_code "undefined-dict"
    (findings_of "pass all with member(@src[name], ssh)")

let test_default_fallthrough () =
  let fs = findings_of "pass from 10.0.0.0/8 to any" in
  (match find_code "default-fallthrough" fs with
  | None -> Alcotest.fail "expected default-fallthrough"
  | Some f ->
      Alcotest.(check bool) "info severity" true (f.C.severity = C.Info);
      Alcotest.(check bool) "has witness outside 10/8" true
        (match f.C.witness with
        | Some w -> not (Prefix.mem w.Five_tuple.src (prefix "10.0.0.0/8"))
        | None -> false));
  (* full coverage: fallthrough reported as unreachable, no witness *)
  let fs = findings_of "block all" in
  match find_code "default-fallthrough" fs with
  | Some { C.witness = None; _ } -> ()
  | Some _ -> Alcotest.fail "covered default should have no witness"
  | None -> Alcotest.fail "fallthrough finding should still appear"

let test_unanswerable_keys () =
  let conf s =
    match Identxx.Config.parse s with
    | Ok c -> c
    | Error e -> Alcotest.failf "config error: %s" e
  in
  let configs = [ ("host.identxx.conf", conf "os-name : Linux\n") ] in
  let policy = "block all\npass from any to any with eq(@dst[machine-room], dmz)" in
  (* no configs: check is skipped entirely *)
  no_code "unanswerable-key" (findings_of policy);
  has_code "unanswerable-key" (findings_of ~configs policy);
  (* a key any config answers is fine *)
  no_code "unanswerable-key"
    (findings_of ~configs
       "block all\npass from any to any with eq(@dst[os-name], plan9)");
  (* built-in keys need no config entry *)
  List.iter
    (fun key ->
      no_code "unanswerable-key"
        (findings_of ~configs
           (Printf.sprintf
              "block all\npass from any to any with eq(@src[%s], x)" key)))
    C.daemon_builtin_keys

let test_exit_code_contract () =
  let warn_only = findings_of "block quick all\npass from any to any port 80" in
  has_code "shadowed-rule" warn_only;
  Alcotest.(check int) "warnings exit 0" 0 (Analysis.Report.exit_code warn_only);
  let errors = findings_of "pass from <ghost> to any" in
  Alcotest.(check int) "errors exit 1" 1 (Analysis.Report.exit_code errors)

(* An exact oracle for shadowing: on condition-free rules every static
   region of the diagram has exactly one deciding line (0 for the
   default), and a rule is reported shadowed or unmatchable iff it
   decides no region. *)
let prop_shadow_oracle =
  QCheck.Test.make ~name:"shadowing matches the diagram's deciders"
    ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 8) gen_rule)
       ~print:(fun rs -> String.concat "\n" (List.map rule_text rs)))
    (fun rs ->
      let decls = parse_rules (lan_decl ^ String.concat "\n" (List.map rule_text rs)) in
      let rules = Pf.Ast.rules decls in
      let slice =
        Analysis.Fdd.static_slice ~limit:max_int
          (Analysis.Fdd.compile_rules ~lookup:lan_lookup rules)
      in
      let deciders =
        List.map
          (fun (_, _, lines) ->
            match lines with
            | [ l ] -> l
            | _ -> QCheck.Test.fail_report "a region with several deciders")
          slice.Analysis.Fdd.s_static
      in
      let flagged =
        List.filter_map
          (fun (f : C.finding) ->
            if f.C.code = "shadowed-rule" || f.C.code = "unmatchable-rule" then
              Some f.C.line
            else None)
          (C.run decls)
      in
      slice.Analysis.Fdd.s_reactive = []
      && List.for_all
           (fun (r : Pf.Ast.rule) ->
             List.mem r.Pf.Ast.line flagged
             = not (List.mem r.Pf.Ast.line deciders))
           rules)

(* --- textual checks: duplicates, unknown functions --- *)

let lines_with code fs =
  List.filter_map
    (fun (f : C.finding) -> if f.C.code = code then Some f.C.line else None)
    fs

let test_duplicates () =
  Alcotest.(check (list int)) "the earlier copy is redundant" [ 1 ]
    (lines_with "duplicate-rule"
       (findings_of
          "pass from any to any port 80\nblock all\npass from any to any port 80"))

let test_duplicate_quick () =
  (* identical quick rules: the earlier always fires first, so the
     LATER copy is the redundant one *)
  Alcotest.(check (list int)) "the later copy is redundant" [ 3 ]
    (lines_with "duplicate-rule"
       (findings_of
          "pass quick from any to any port 80\nblock all\n\
           pass quick from any to any port 80"))

let test_unknown_function () =
  let fs = findings_of "pass all with frobnicate(@src[x])" in
  Alcotest.(check (list int)) "flagged" [ 1 ] (lines_with "unknown-function" fs);
  Alcotest.(check bool) "a warning, not an error" false (C.has_errors fs)

(* Figure 2's header, skype and footer fragments, concatenated the way
   the controller reads them (§3.4). *)
let fig2_config =
  "table <server> { 192.168.1.1 }\n\
   table <lan> { 192.168.0.0/24 }\n\
   table <int_hosts> { <lan> <server> }\n\
   allowed = \"{ http ssh }\"\n\
   block all\n\
   pass from <int_hosts> to !<int_hosts> keep state\n\
   pass from <int_hosts> to <int_hosts> with member(@src[name], $allowed) keep state\n\
   pass all with eq(@src[name], skype) with eq(@dst[name], skype)\n\
   pass from any to <skype_update> port 80 with eq(@src[name], skype) keep state\n\
   table <skype_update> { 123.123.123.0/24 }\n\
   block all with eq(@src[name], skype) with lt(@src[version], 200)\n\
   block from any to <server> with eq(@src[name], skype)"

let test_figure2_clean () =
  Alcotest.(check (list (pair int string)))
    "only the fallthrough note"
    [ (0, "default-fallthrough") ]
    (List.map (fun (f : C.finding) -> (f.C.line, f.C.code)) (findings_of fig2_config))

let test_dead_after_quick_all () =
  Alcotest.(check (list int)) "both later rules never decide" [ 2; 3 ]
    (lines_with "shadowed-rule"
       (findings_of "block quick all\npass from any to any port 80\nblock all"))

(* The per-file lint this analyzer replaced flagged every rule after
   an unconditional quick rule as dead; kept as an oracle, it must be
   subsumed by the flow-space findings. *)
let dead_after_quick_all rules =
  let rec go = function
    | [] -> []
    | (r : Pf.Ast.rule) :: rest
      when r.quick && Pf.Ast.is_all r && r.conds = [] && r.proto = None ->
        List.map (fun (d : Pf.Ast.rule) -> d.line) rest
    | _ :: rest -> go rest
  in
  go rules

(* The shipped policy set, one declaration per line. *)
let shipped_lines =
  lazy
    (let dir =
       if Sys.file_exists "../policies" then "../policies" else "policies"
     in
     Sys.readdir dir |> Array.to_list
     |> List.filter (fun f -> Filename.check_suffix f ".control")
     |> List.sort String.compare
     |> List.map (fun f ->
            In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)
     |> String.concat "\n" |> parse_rules |> Pf.Pretty.ruleset |> String.trim
     |> String.split_on_char '\n')

let prop_quick_all_subsumed =
  let gen =
    QCheck.Gen.(
      let* lines =
        frequency
          [
            ( 3,
              map
                (fun rs -> String.trim lan_decl :: List.map rule_text rs)
                (list_size (int_range 0 8) gen_rule) );
            (1, return (Lazy.force shipped_lines));
          ]
      in
      let* at = int_bound (List.length lines) in
      let+ quick_all = oneofl [ "block quick all"; "pass quick all" ] in
      List.filteri (fun i _ -> i < at) lines
      @ (quick_all :: List.filteri (fun i _ -> i >= at) lines))
  in
  QCheck.Test.make ~name:"rules after a quick all are flagged" ~count:300
    (QCheck.make gen ~print:(String.concat "\n"))
    (fun lines ->
      let decls = parse_rules (String.concat "\n" lines) in
      let flagged =
        List.filter_map
          (fun (f : C.finding) ->
            if
              f.C.code = "shadowed-rule" || f.C.code = "unmatchable-rule"
              || String.starts_with ~prefix:"undefined-" f.C.code
            then Some f.C.line
            else None)
          (C.run decls)
      in
      List.for_all
        (fun l -> List.mem l flagged)
        (dead_after_quick_all (Pf.Ast.rules decls)))

(* Atom subtraction over a 64-prefix table once took minutes here; the
   diagram answers at once, with the same findings as on small
   tables. *)
let test_table_policy_scales () =
  let lan =
    String.concat " "
      (List.init 64 (fun i -> Printf.sprintf "10.%d.%d.0/24" i (7 * i mod 256)))
  in
  let fs =
    findings_of
      (Printf.sprintf
         "table <lan> { %s }\n\
          block all\n\
          pass from <lan> to <lan> port 1000:2000\n\
          block from any to <lan> port 22\n\
          pass from <lan> to any\n\
          block from <lan> to <lan>"
         lan)
  in
  Alcotest.(check (list (pair int string)))
    "findings"
    [ (0, "default-fallthrough"); (3, "shadowed-rule"); (5, "rule-conflict") ]
    (List.map (fun (f : C.finding) -> (f.C.line, f.C.code)) fs);
  match find_code "rule-conflict" fs with
  | Some { C.witness = Some w; _ } ->
      Alcotest.(check string)
        "witness" "tcp 10.0.0.0:0 -> 10.0.0.0:22" (Five_tuple.to_string w)
  | _ -> Alcotest.fail "expected a conflict witness"

(* --- integration: precompile offload --- *)

let test_precompile_disjoint_offload () =
  let drops policy =
    let env = env_of policy in
    Compiler.compile
      (Compiler.offload ~proactive:false env (Analysis.Fdd.compile env))
  in
  let from src =
    Five_tuple.tcp ~src:(Ipv4.of_string src) ~dst:(Ipv4.of_string "8.8.8.8")
      ~src_port:40000 ~dst_port:80
  in
  (* A `block quick` AFTER a conditional quick rule is still offloaded
     where their flow-spaces are disjoint… *)
  let tbl =
    drops
      "pass quick from 10.0.0.0/8 to any with eq(@src[name], ssh)\n\
       block quick from 192.168.0.0/16 to any\n\
       block all"
  in
  Alcotest.(check bool) "disjoint blocker offloaded" true
    (Compiler.lookup tbl (from "192.168.7.1") = Compiler.Decide Pf.Ast.Block);
  (* …and where they overlap, only outside the conditional rule's
     space: there it may pass first. *)
  let tbl =
    drops
      "pass quick from 192.168.0.0/24 to any with eq(@src[name], ssh)\n\
       block quick from 192.168.0.0/16 to any\n\
       block all"
  in
  Alcotest.(check bool) "overlap withheld" true
    (Compiler.lookup tbl (from "192.168.0.1") = Compiler.Punt);
  Alcotest.(check bool) "the rest of the /16 offloaded" true
    (Compiler.lookup tbl (from "192.168.1.1") = Compiler.Decide Pf.Ast.Block);
  (* Replies admitted by keep state: a reply from 192.168/16 to a 10/8
     client whose flow kept state is readmitted before the ruleset, so
     the controller lowers the drop meeting it to a punt, and no drop
     sits above the reply's entries. *)
  let s = Identxx_core.Deploy.simple_network () in
  Identxx_core.Policy_store.add_exn
    (Identxx_core.Controller.policy s.Identxx_core.Deploy.controller)
    ~name:"00-policy"
    "pass quick from 10.0.0.0/8 to any with eq(@src[name], ssh) keep state\n\
     block quick from 192.168.0.0/16 to any\n\
     block all";
  Sim.Engine.run s.Identxx_core.Deploy.engine;
  let installed =
    Openflow.Flow_table.entries
      (Openflow.Switch.table (Openflow.Network.switch s.Identxx_core.Deploy.network 1))
  in
  Alcotest.(check bool) "the block compiled" true (installed <> []);
  Alcotest.(check bool) "no drop meeting keep-state replies" true
    (List.for_all
       (fun e -> e.Openflow.Flow_entry.rule.actions <> Openflow.Action.drop)
       installed)

let () =
  Alcotest.run "analysis"
    [
      ( "flowspace",
        [
          Alcotest.test_case "space algebra" `Quick test_space_algebra;
          Alcotest.test_case "witness" `Quick test_space_witness;
          Alcotest.test_case "negation" `Quick test_space_negation;
          Alcotest.test_case "table rules" `Quick test_space_of_table_rule;
          Alcotest.test_case "to_string" `Quick test_space_to_string;
          QCheck_alcotest.to_alcotest prop_space_ops;
          QCheck_alcotest.to_alcotest prop_prefix_count;
        ] );
      ( "checks",
        [
          Alcotest.test_case "shadowed by quick" `Quick test_shadowed_by_quick;
          Alcotest.test_case "shadowed by last-match" `Quick
            test_shadowed_by_last_match;
          Alcotest.test_case "conflicts" `Quick test_conflicts;
          Alcotest.test_case "table cycles" `Quick test_table_cycle;
          Alcotest.test_case "undefined references" `Quick
            test_undefined_references;
          Alcotest.test_case "default fallthrough" `Quick
            test_default_fallthrough;
          Alcotest.test_case "unanswerable keys" `Quick test_unanswerable_keys;
          Alcotest.test_case "exit code contract" `Quick
            test_exit_code_contract;
          Alcotest.test_case "table policy scales" `Quick
            test_table_policy_scales;
          QCheck_alcotest.to_alcotest prop_shadow_oracle;
        ] );
      ( "lint",
        [
          Alcotest.test_case "dead after quick all" `Quick
            test_dead_after_quick_all;
          Alcotest.test_case "duplicates" `Quick test_duplicates;
          Alcotest.test_case "duplicate quick" `Quick test_duplicate_quick;
          Alcotest.test_case "unknown function" `Quick test_unknown_function;
          Alcotest.test_case "figure 2 clean" `Quick test_figure2_clean;
          QCheck_alcotest.to_alcotest prop_quick_all_subsumed;
        ] );
      ( "integration",
        [
          Alcotest.test_case "precompile disjoint offload" `Quick
            test_precompile_disjoint_offload;
        ] );
    ]
