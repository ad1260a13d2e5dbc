(* identxx_ctl: command-line front end to the PF+=2 policy engine.

   Subcommands:
     check  validate .control files (parse + table resolution)
     fmt    parse and pretty-print a policy
     eval   decide a flow against a policy, with optional ident++
            key-value pairs for the source and destination ends

   Examples:
     identxx_ctl check policies/*.control
     identxx_ctl eval -p site.control \
        --flow "tcp 192.168.0.10:40000 -> 192.168.1.1:80" \
        --src name=skype --src version=210 --dst name=Server *)

open Cmdliner
module PS = Identxx_core.Policy_store
module D = Identxx_core.Decision

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* "tcp 1.2.3.4:500 -> 5.6.7.8:80" *)
let parse_flow s =
  let fail () =
    Error
      (Printf.sprintf
         "cannot parse flow %S (expected \"tcp A.B.C.D:SP -> E.F.G.H:DP\")" s)
  in
  match String.split_on_char ' ' (String.trim s) with
  | [ proto; src; "->"; dst ] -> (
      let split_hp hp =
        match String.rindex_opt hp ':' with
        | None -> None
        | Some i ->
            let host = String.sub hp 0 i in
            let port = String.sub hp (i + 1) (String.length hp - i - 1) in
            Option.bind (Netcore.Ipv4.of_string_opt host) (fun ip ->
                Option.map (fun p -> (ip, p)) (int_of_string_opt port))
      in
      match
        (Netcore.Proto.of_string_opt proto, split_hp src, split_hp dst)
      with
      | Some proto, Some (sip, sp), Some (dip, dp) ->
          Ok
            (Netcore.Five_tuple.make ~src:sip ~dst:dip ~proto ~src_port:sp
               ~dst_port:dp)
      | _ -> fail ())
  | _ -> fail ()

let parse_pairs kvs =
  List.map
    (fun kv ->
      match String.index_opt kv '=' with
      | None -> failwith (Printf.sprintf "bad key=value pair %S" kv)
      | Some i ->
          Identxx.Key_value.pair (String.sub kv 0 i)
            (String.sub kv (i + 1) (String.length kv - i - 1)))
    kvs

let load_policy files =
  let store = PS.create () in
  List.iter
    (fun path ->
      match PS.add store ~name:(Filename.basename path) (read_file path) with
      | Ok () -> ()
      | Error e -> failwith e)
    files;
  store

(* --- check --- *)

let check_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  let run files =
    try
      let store = load_policy files in
      match PS.env store with
      | Ok env ->
          Printf.printf "OK: %d files, %d rules, tables: %s\n"
            (List.length (PS.files store))
            (List.length (Pf.Env.rules env))
            (String.concat ", " (Pf.Env.table_names env));
          0
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          1
    with Failure e ->
      Printf.eprintf "error: %s\n" e;
      1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Validate .control policy files")
    Term.(const run $ files)

(* --- fmt --- *)

let fmt_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    match Pf.Parser.parse (read_file file) with
    | Ok decls ->
        print_string (Pf.Pretty.ruleset decls);
        0
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
  in
  Cmd.v
    (Cmd.info "fmt" ~doc:"Parse and pretty-print a PF+=2 policy")
    Term.(const run $ file)

(* --- eval --- *)

let eval_cmd =
  let policies =
    Arg.(
      non_empty
      & opt_all file []
      & info [ "p"; "policy" ] ~docv:"FILE" ~doc:"Policy file (repeatable).")
  in
  let flow =
    Arg.(
      required
      & opt (some string) None
      & info [ "flow" ] ~docv:"FLOW"
          ~doc:"The flow, e.g. \"tcp 10.0.0.1:4000 -> 10.0.0.2:80\".")
  in
  let src_pairs =
    Arg.(
      value & opt_all string []
      & info [ "src" ] ~docv:"KEY=VALUE"
          ~doc:"ident++ pair reported by the flow's source (repeatable).")
  in
  let dst_pairs =
    Arg.(
      value & opt_all string []
      & info [ "dst" ] ~docv:"KEY=VALUE"
          ~doc:"ident++ pair reported by the flow's destination (repeatable).")
  in
  let default_block =
    Arg.(
      value & flag
      & info [ "default-block" ]
          ~doc:"Use a default-deny instead of PF's implicit pass.")
  in
  let trace_flag =
    Arg.(
      value & flag
      & info [ "trace" ] ~doc:"Show how every rule fared against the flow.")
  in
  let run policies flow src_pairs dst_pairs default_block trace_flag =
    try
      match parse_flow flow with
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          1
      | Ok flow ->
          let store = load_policy policies in
          let decision =
            D.create
              ~default:(if default_block then Pf.Ast.Block else Pf.Ast.Pass)
              ~policy:store ()
          in
          let response pairs =
            match parse_pairs pairs with
            | [] -> None
            | section -> Some (Identxx.Response.make ~flow [ section ])
          in
          let input =
            {
              D.flow;
              src_response = response src_pairs;
              dst_response = response dst_pairs;
            }
          in
          if trace_flag then begin
            let env = PS.env_exn store in
            let ctx =
              Pf.Eval.ctx ?src:input.D.src_response ?dst:input.D.dst_response
                ~keystore:(D.keystore decision)
                ~functions:(D.functions decision) ()
            in
            match
              Pf.Eval.trace
                ~default:(if default_block then Pf.Ast.Block else Pf.Ast.Pass)
                env ctx input.D.flow
            with
            | Error e ->
                Printf.eprintf "error: %s\n" e;
                exit 1
            | Ok (steps, _) ->
                List.iter
                  (fun (s : Pf.Eval.trace_step) ->
                    Printf.printf "%s line %-3d %s\n"
                      (if s.Pf.Eval.decided then "=>"
                       else if s.Pf.Eval.matched then "* "
                       else "  ")
                      s.Pf.Eval.rule.Pf.Ast.line
                      (Pf.Pretty.rule s.Pf.Eval.rule))
                  steps
          end;
          print_endline (D.explain decision input);
          if D.allows decision input then 0 else 2
    with Failure e ->
      Printf.eprintf "error: %s\n" e;
      1
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:
         "Decide a flow against a policy (exit 0 = pass, 2 = block, 1 = error)")
    Term.(
      const run $ policies $ flow $ src_pairs $ dst_pairs $ default_block
      $ trace_flag)

(* --- daemon-check: lint ident++ daemon configuration files --- *)

let daemon_check_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  let run files =
    let check_file path =
      match Identxx.Config.parse (read_file path) with
      | Error e ->
          Printf.eprintf "%s: %s\n" path e;
          false
      | Ok cfg ->
          let bad_reqs =
            List.filter_map
              (fun (block : Identxx.Config.app_block) ->
                match Identxx.Key_value.find block.pairs "requirements" with
                | None -> None
                | Some reqs -> (
                    match Pf.Parser.parse_rules reqs with
                    | Ok _ -> None
                    | Error e -> Some (block.path, e)))
              cfg.Identxx.Config.apps
          in
          List.iter
            (fun (app, e) ->
              Printf.eprintf "%s: @app %s: requirements do not parse: %s\n"
                path app e)
            bad_reqs;
          let unsigned =
            List.filter
              (fun (block : Identxx.Config.app_block) ->
                Identxx.Key_value.find block.pairs "requirements" <> None
                && Identxx.Key_value.find block.pairs "req-sig" = None)
              cfg.Identxx.Config.apps
          in
          List.iter
            (fun (block : Identxx.Config.app_block) ->
              Printf.printf
                "%s: warning: @app %s has requirements but no req-sig\n" path
                block.Identxx.Config.path)
            unsigned;
          if bad_reqs = [] then begin
            Printf.printf "%s: OK (%d global pairs, %d @app blocks)\n" path
              (List.length cfg.Identxx.Config.globals)
              (List.length cfg.Identxx.Config.apps);
            true
          end
          else false
    in
    let results = List.map check_file files in
    if List.for_all Fun.id results then 0 else 1
  in
  Cmd.v
    (Cmd.info "daemon-check"
       ~doc:"Validate ident++ daemon configuration files (@app blocks)")
    Term.(const run $ files)

(* --- matrix: batch decisions from a scenario file --- *)

let matrix_cmd =
  let policies =
    Arg.(
      non_empty & opt_all file []
      & info [ "p"; "policy" ] ~docv:"FILE" ~doc:"Policy file (repeatable).")
  in
  let scenario =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCENARIOS")
  in
  let run policies scenario =
    try
      let store = load_policy policies in
      let decision = D.create ~policy:store () in
      let lines =
        String.split_on_char '\n' (read_file scenario)
        |> List.mapi (fun i l -> (i + 1, String.trim l))
        |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
      in
      let failures = ref 0 in
      List.iter
        (fun (lineno, line) ->
          match String.split_on_char '|' line |> List.map String.trim with
          | [ flow_s; src_s; dst_s; expect_s ] -> (
              match parse_flow flow_s with
              | Error e -> failwith (Printf.sprintf "line %d: %s" lineno e)
              | Ok flow ->
                  let pairs s =
                    match
                      String.split_on_char ' ' s |> List.filter (( <> ) "")
                    with
                    | [] -> None
                    | kvs -> Some (Identxx.Response.make ~flow [ parse_pairs kvs ])
                  in
                  let input =
                    {
                      D.flow;
                      src_response = pairs src_s;
                      dst_response = pairs dst_s;
                    }
                  in
                  let got = if D.allows decision input then "pass" else "block" in
                  let ok = got = expect_s in
                  if not ok then incr failures;
                  Printf.printf "%-50s %-6s %-6s %s\n" flow_s expect_s got
                    (if ok then "ok" else "MISMATCH"))
          | _ ->
              failwith
                (Printf.sprintf
                   "line %d: expected 'flow | src pairs | dst pairs | pass/block'"
                   lineno))
        lines;
      if !failures = 0 then begin
        Printf.printf "all %d scenarios match\n" (List.length lines);
        0
      end
      else begin
        Printf.printf "%d mismatch(es)\n" !failures;
        2
      end
    with Failure e ->
      Printf.eprintf "error: %s\n" e;
      1
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Decide a file of scenarios (flow | src pairs | dst pairs | \
          expectation) against a policy")
    Term.(const run $ policies $ scenario)

(* --- analyze: lint policies (cheap per-file checks, or the deep
   whole-ruleset flow-space analysis with --deep) --- *)

(* Daemon configuration files ride along on the analyze command line so
   the cross-config key check can tell which @src/@dst keys any daemon
   could ever answer. *)
let is_daemon_config path = Filename.check_suffix path ".conf"

let severity_count (findings : Analysis.Check.finding list) sev =
  List.length
    (List.filter (fun (f : Analysis.Check.finding) -> f.severity = sev) findings)

let analyze_deep policy_files config_files format =
  let named =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map
         (fun path -> (Filename.basename path, read_file path))
         policy_files)
  in
  let configs =
    List.map
      (fun path ->
        match Identxx.Config.parse (read_file path) with
        | Ok cfg -> (Filename.basename path, cfg)
        | Error e ->
            Printf.eprintf "%s: %s\n" path e;
            exit 1)
      config_files
  in
  match Pf.Parser.parse (String.concat "\n" (List.map snd named)) with
  | Error e ->
      (* Parser errors carry the concatenated line number; map it back
         to the contributing file so multi-file reports stay usable. *)
      let e =
        match Scanf.sscanf_opt e "line %d:" (fun n -> n) with
        | Some n ->
            let file, local = Analysis.Report.locator named n in
            let colon = String.index e ':' in
            Printf.sprintf "%s: line %d:%s" file local
              (String.sub e (colon + 1) (String.length e - colon - 1))
        | None -> e
      in
      Printf.eprintf "error: %s\n" e;
      1
  | Ok decls ->
      let where line =
        let file, local = Analysis.Report.locator named line in
        Printf.sprintf "%s:%d" file local
      in
      let findings = Analysis.Check.run ~configs ~where decls in
      let located = Analysis.Report.locate named findings in
      (match format with
      | `Json -> print_endline (Analysis.Report.to_json located)
      | `Text ->
          List.iter
            (fun l -> print_endline (Analysis.Report.text_line l))
            located;
          Printf.printf "%d error(s), %d warning(s), %d info in %d file(s)\n"
            (severity_count findings Analysis.Check.Error)
            (severity_count findings Analysis.Check.Warning)
            (severity_count findings Analysis.Check.Info)
            (List.length named));
      Analysis.Report.exit_code findings

let analyze_shallow policy_files format =
  let findings =
    List.concat_map
      (fun path ->
        match Pf.Parser.parse (read_file path) with
        | Error e ->
            Printf.eprintf "%s: %s\n" path e;
            exit 1
        | Ok decls -> List.map (fun f -> (path, f)) (Pf.Lint.check decls))
      policy_files
  in
  match format with
  | `Json ->
      let located =
        List.map
          (fun (path, (f : Pf.Lint.finding)) ->
            {
              Analysis.Report.file = path;
              local_line = f.Pf.Lint.line;
              finding = Analysis.Check.of_lint f;
            })
          findings
      in
      print_endline (Analysis.Report.to_json located);
      if findings = [] then 0 else 2
  | `Text ->
      List.iter
        (fun (path, f) ->
          Printf.printf "%s: %s\n" path
            (Format.asprintf "%a" Pf.Lint.pp_finding f))
        findings;
      if findings = [] then begin
        Printf.printf "no findings in %d file(s)\n" (List.length policy_files);
        0
      end
      else 2

(* --- analyze equiv/diff/slice: decision-diagram semantics over whole
   policy sets (lib/analysis/fdd.mli). Each side of a comparison is a
   policy set in its own right: files are sorted by basename and
   concatenated exactly like the controller's well-known directory. *)

let load_policy_env files =
  let named =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map (fun path -> (Filename.basename path, read_file path)) files)
  in
  match Pf.Env.of_string (String.concat "\n" (List.map snd named)) with
  | Ok env -> (named, env)
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1

let load_policy_set files =
  let named, env = load_policy_env files in
  (named, Analysis.Fdd.compile env)

let json_str s = Obs.Json.to_string (Obs.Json.Str s)

(* Deciding lines rendered fragment-aware: the concatenated line is
   mapped back to the contributing file, line 0 is the implicit
   default. *)
let line_ref named = function
  | 0 -> "default"
  | l ->
      let file, local = Analysis.Report.locator named l in
      Printf.sprintf "%s:%d" file local

let action_name = function Pf.Ast.Pass -> "pass" | Pf.Ast.Block -> "block"

let verdict_text named = function
  | Analysis.Fdd.Static { action; lines } ->
      Printf.sprintf "%s (%s)" (action_name action)
        (String.concat ", " (List.map (line_ref named) lines))
  | Analysis.Fdd.Reactive { lines; inputs; may_default } ->
      Printf.sprintf "reactive (%s; needs %s%s)"
        (String.concat ", " (List.map (line_ref named) lines))
        (match inputs with
        | [] -> "flow-time evaluation"
        | _ ->
            String.concat ", " (List.map Pf.Ast.cond_input_to_string inputs))
        (if may_default then "; may fall through to default" else "")

let verdict_json named = function
  | Analysis.Fdd.Static { action; lines } ->
      Printf.sprintf {|{"kind":"static","action":"%s","lines":[%s]}|}
        (action_name action)
        (String.concat ","
           (List.map (fun l -> json_str (line_ref named l)) lines))
  | Analysis.Fdd.Reactive { lines; inputs; may_default } ->
      Printf.sprintf
        {|{"kind":"reactive","lines":[%s],"inputs":[%s],"may_default":%b}|}
        (String.concat ","
           (List.map (fun l -> json_str (line_ref named l)) lines))
        (String.concat ","
           (List.map
              (fun i -> json_str (Pf.Ast.cond_input_to_string i))
              inputs))
        may_default

let region_fraction (rg : Analysis.Fdd.region) =
  let w = Analysis.Fdd.width in
  w 0 rg.Analysis.Fdd.r_proto
  *. w 1 rg.Analysis.Fdd.r_src
  *. w 2 rg.Analysis.Fdd.r_dst
  *. w 3 rg.Analysis.Fdd.r_sport
  *. w 4 rg.Analysis.Fdd.r_dport

let analyze_format =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:"Output format: $(b,text) (default) or $(b,json).")

let old_set = Arg.(non_empty & pos_all file [] & info [] ~docv:"OLD")

let new_set =
  Arg.(
    non_empty & opt_all file []
    & info [ "against"; "B" ] ~docv:"NEW"
        ~doc:
          "File(s) of the policy set to compare against (repeatable; the \
           set is sorted and concatenated like the positional one).")

let analyze_equiv_cmd =
  let run old_files new_files format =
    let named_l, fl = load_policy_set old_files in
    let named_r, fr = load_policy_set new_files in
    match Analysis.Fdd.equiv fl fr with
    | Ok () ->
        (match format with
        | `Json ->
            print_endline
              (Printf.sprintf
                 {|{"equivalent":true,"nodes":{"old":%d,"new":%d}}|}
                 (Analysis.Fdd.node_count fl) (Analysis.Fdd.node_count fr))
        | `Text ->
            print_endline
              "equivalent: both policy sets decide every flow identically");
        0
    | Error { Analysis.Fdd.flow; left; right } ->
        (match format with
        | `Json ->
            print_endline
              (Printf.sprintf
                 {|{"equivalent":false,"counterexample":{"flow":%s,"old":%s,"new":%s}}|}
                 (json_str (Netcore.Five_tuple.to_string flow))
                 (verdict_json named_l left) (verdict_json named_r right))
        | `Text ->
            Printf.printf
              "not equivalent: counterexample %s\n  old: %s\n  new: %s\n"
              (Netcore.Five_tuple.to_string flow) (verdict_text named_l left)
              (verdict_text named_r right));
        2
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:
         "Check two policy sets for semantic equivalence (exit 0 = \
          equivalent, 2 = a counterexample flow is reported, 1 = a set does \
          not compile)")
    Term.(const run $ old_set $ new_set $ analyze_format)

let analyze_diff_cmd =
  let limit =
    Arg.(
      value & opt int 16
      & info [ "limit" ] ~docv:"N"
          ~doc:"Maximum example regions to report (the fraction is exact).")
  in
  let run old_files new_files limit format =
    let named_l, fl = load_policy_set old_files in
    let named_r, fr = load_policy_set new_files in
    let r = Analysis.Fdd.diff ~limit fl fr in
    (match format with
    | `Json ->
        print_endline
          (Printf.sprintf
             {|{"changed_fraction":%.9g,"truncated":%b,"deltas":[%s]}|}
             r.Analysis.Fdd.changed_fraction r.Analysis.Fdd.truncated
             (String.concat ","
                (List.map
                   (fun (d : Analysis.Fdd.delta) ->
                     Printf.sprintf
                       {|{"region":%s,"old":%s,"new":%s}|}
                       (json_str (Analysis.Fdd.region_to_string d.d_region))
                       (verdict_json named_l d.d_left)
                       (verdict_json named_r d.d_right))
                   r.Analysis.Fdd.deltas)))
    | `Text ->
        Printf.printf "changed: %.9g of flow space\n"
          r.Analysis.Fdd.changed_fraction;
        List.iter
          (fun (d : Analysis.Fdd.delta) ->
            Printf.printf "%s\n  old: %s\n  new: %s\n"
              (Analysis.Fdd.region_to_string d.Analysis.Fdd.d_region)
              (verdict_text named_l d.Analysis.Fdd.d_left)
              (verdict_text named_r d.Analysis.Fdd.d_right))
          r.Analysis.Fdd.deltas;
        if r.Analysis.Fdd.truncated then
          Printf.printf "... (more changed regions, raise --limit)\n");
    0
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Report the exact flow space whose verdict differs between two \
          policy sets (exit 0; 1 = a set does not compile)")
    Term.(const run $ old_set $ new_set $ limit $ analyze_format)

let analyze_slice_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  let limit =
    Arg.(
      value & opt int 4096
      & info [ "limit" ] ~docv:"N" ~doc:"Maximum regions to enumerate.")
  in
  let min_coverage =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-coverage" ] ~docv:"FRACTION"
          ~doc:
            "Fail (exit 1) when the statically decided fraction of flow \
             space falls below $(docv).")
  in
  let min_coverage_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "min-coverage-file" ] ~docv:"PATH"
          ~doc:
            "Read the $(b,--min-coverage) threshold from $(docv) (a single \
             float; takes precedence over the flag). This is the committed \
             regression gate the lint alias uses.")
  in
  let run files limit min_coverage min_coverage_file format =
    let named, fdd = load_policy_set files in
    let sl = Analysis.Fdd.static_slice ~limit fdd in
    let nodes = Analysis.Fdd.node_count fdd in
    (* Cross-fragment ownership: which fragment's rules decide each
       statically decided region. A region whose possible deciders span
       several files is "shared"; one decided only by the implicit
       default is "default". *)
    let buckets = Hashtbl.create 8 in
    List.iter
      (fun ((rg : Analysis.Fdd.region), _action, lines) ->
        let owners =
          List.sort_uniq String.compare
            (List.map
               (fun l ->
                 if l = 0 then "default"
                 else fst (Analysis.Report.locator named l))
               lines)
        in
        let owner = match owners with [ o ] -> o | _ -> "shared" in
        let prev = try Hashtbl.find buckets owner with Not_found -> 0.0 in
        Hashtbl.replace buckets owner (prev +. region_fraction rg))
      sl.Analysis.Fdd.s_static;
    let ownership =
      List.sort
        (fun (na, fa) (nb, fb) ->
          match compare (fb : float) fa with
          | 0 -> String.compare na nb
          | c -> c)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) buckets [])
    in
    (match format with
    | `Json ->
        print_endline
          (Printf.sprintf
             {|{"nodes":%d,"static_coverage":%.9g,"truncated":%b,"ownership":[%s],"static":[%s],"reactive":[%s]}|}
             nodes sl.Analysis.Fdd.s_coverage sl.Analysis.Fdd.s_truncated
             (String.concat ","
                (List.map
                   (fun (owner, f) ->
                     Printf.sprintf {|{"owner":%s,"fraction":%.9g}|}
                       (json_str owner) f)
                   ownership))
             (String.concat ","
                (List.map
                   (fun (rg, action, lines) ->
                     Printf.sprintf
                       {|{"region":%s,"action":"%s","lines":[%s]}|}
                       (json_str (Analysis.Fdd.region_to_string rg))
                       (action_name action)
                       (String.concat ","
                          (List.map
                             (fun l -> json_str (line_ref named l))
                             lines)))
                   sl.Analysis.Fdd.s_static))
             (String.concat ","
                (List.map
                   (fun (rg, (r : Analysis.Fdd.reason)) ->
                     Printf.sprintf
                       {|{"region":%s,"lines":[%s],"inputs":[%s],"may_default":%b}|}
                       (json_str (Analysis.Fdd.region_to_string rg))
                       (String.concat ","
                          (List.map
                             (fun l -> json_str (line_ref named l))
                             r.Analysis.Fdd.lines))
                       (String.concat ","
                          (List.map
                             (fun i ->
                               json_str (Pf.Ast.cond_input_to_string i))
                             r.Analysis.Fdd.inputs))
                       r.Analysis.Fdd.may_default)
                   sl.Analysis.Fdd.s_reactive)))
    | `Text ->
        Printf.printf "nodes: %d\nstatic coverage: %.9g%s\n" nodes
          sl.Analysis.Fdd.s_coverage
          (if sl.Analysis.Fdd.s_truncated then " (region list truncated)"
           else "");
        if ownership <> [] then begin
          print_endline "ownership of statically decided flow space:";
          List.iter
            (fun (owner, f) -> Printf.printf "  %-28s %.9g\n" owner f)
            ownership
        end;
        List.iter
          (fun (rg, action, lines) ->
            Printf.printf "static %s: %s (%s)\n" (action_name action)
              (Analysis.Fdd.region_to_string rg)
              (String.concat ", " (List.map (line_ref named) lines)))
          sl.Analysis.Fdd.s_static;
        List.iter
          (fun (rg, (r : Analysis.Fdd.reason)) ->
            Printf.printf "reactive: %s (%s; needs %s%s)\n"
              (Analysis.Fdd.region_to_string rg)
              (String.concat ", "
                 (List.map (line_ref named) r.Analysis.Fdd.lines))
              (match r.Analysis.Fdd.inputs with
              | [] -> "flow-time evaluation"
              | inputs ->
                  String.concat ", "
                    (List.map Pf.Ast.cond_input_to_string inputs))
              (if r.Analysis.Fdd.may_default then
                 "; may fall through to default"
               else ""))
          sl.Analysis.Fdd.s_reactive);
    let threshold =
      match min_coverage_file with
      | Some path -> (
          match float_of_string_opt (String.trim (read_file path)) with
          | Some f -> Some f
          | None ->
              Printf.eprintf "error: %s does not contain a float\n" path;
              exit 1)
      | None -> min_coverage
    in
    match threshold with
    | Some th when sl.Analysis.Fdd.s_coverage < th ->
        Printf.eprintf
          "error: static coverage %.9g regressed below threshold %.9g\n"
          sl.Analysis.Fdd.s_coverage th;
        1
    | _ -> 0
  in
  Cmd.v
    (Cmd.info "slice"
       ~doc:
         "Split a policy set into its statically decided flow space (the \
          proactive flow-table slice) and the reactive residue, with \
          per-fragment ownership (exit 1 = compile failure or coverage \
          below the committed threshold)")
    Term.(
      const run $ files $ limit $ min_coverage $ min_coverage_file
      $ analyze_format)

let analyze_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  let deep =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "Run the whole-ruleset flow-space analysis (shadowing, \
             conflicts, undefined references, cross-config keys, default \
             fallthrough) over the alphabetical concatenation of the \
             $(i,.control) files, treating $(i,*.conf) arguments as ident++ \
             daemon configurations. Exit 1 iff error-severity findings.")
  in
  let run files deep format =
    let config_files, policy_files = List.partition is_daemon_config files in
    if policy_files = [] then begin
      Printf.eprintf "error: no policy files given\n";
      1
    end
    else if deep then analyze_deep policy_files config_files format
    else begin
      List.iter
        (fun path ->
          Printf.eprintf "warning: %s ignored without --deep\n" path)
        config_files;
      analyze_shallow policy_files format
    end
  in
  let lint_cmd =
    Cmd.v
      (Cmd.info "lint"
         ~doc:
           "Lint policies (default: cheap per-file checks; --deep: symbolic \
            flow-space analysis of the whole ruleset). This is the default \
            subcommand: $(b,analyze FILE...) routes here.")
      Term.(const run $ files $ deep $ analyze_format)
  in
  Cmd.group
    (Cmd.info "analyze"
       ~doc:
         "Lint policies (lint, the default) or run decision-diagram \
          semantics over whole policy sets (equiv/diff/slice)")
    [ lint_cmd; analyze_equiv_cmd; analyze_diff_cmd; analyze_slice_cmd ]

(* --- compile: lower a policy set's static slice into the
   priority-ordered wildcard table the proactive controller installs
   (lib/compiler/compiler.mli) --- *)

let compile_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  let max_entries =
    Arg.(
      value
      & opt int Compiler.default_max_entries
      & info [ "max-entries" ] ~docv:"N"
          ~doc:
            "Table-size budget: when the lowered table exceeds $(docv) \
             entries, the lowest-priority tail is replaced by one \
             punt-to-controller entry (sound, slower).")
  in
  let region_budget =
    Arg.(
      value
      & opt int Compiler.default_region_budget
      & info [ "region-budget" ] ~docv:"N"
          ~doc:
            "Per-branch expansion cap: a branch whose exact expansion \
             (ports and protocols enumerate; OpenFlow 1.0 has no port \
             masks) would need more than $(docv) entries spills back to \
             the reactive path.")
  in
  let max_entries_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "max-entries-file" ] ~docv:"PATH"
          ~doc:
            "Read the $(b,--max-entries) gate from $(docv) (a single \
             integer) and fail (exit 1) when the compiled entry count \
             exceeds it. This is the committed table-size budget the lint \
             alias enforces.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Translation validation: check the compiled table's decision \
             against the decision diagram's verdict on a witness flow of \
             every enumerated region (exit 1 on any disagreement).")
  in
  let run files max_entries region_budget max_entries_file verify format =
    let named, env = load_policy_env files in
    (* What the controller installs: a region a log rule may decide
       stays with it, so it prints as a punt. *)
    let fdd = Compiler.offload ~proactive:true env (Analysis.Fdd.compile env) in
    let tbl =
      try Compiler.compile ~max_entries ~region_budget fdd
      with Invalid_argument e ->
        Printf.eprintf "error: %s\n" e;
        exit 1
    in
    let checked =
      if not verify then None
      else
        match Compiler.verify tbl fdd with
        | Ok n -> Some n
        | Error e ->
            Printf.eprintf "error: translation validation failed: %s\n" e;
            exit 1
    in
    let entry_lines (e : Compiler.entry) =
      List.map (line_ref named) e.Compiler.e_lines
    in
    let n_entries = List.length tbl.Compiler.entries in
    (match format with
    | `Json ->
        print_endline
          (Printf.sprintf
             {|{"entries":[%s],"spills":[%s],"static_coverage":%.9g,"installed_coverage":%.9g,"truncated":%b%s}|}
             (String.concat ","
                (List.map
                   (fun (e : Compiler.entry) ->
                     Printf.sprintf
                       {|{"priority":%d,"decision":"%s","match":%s,"lines":[%s]}|}
                       e.Compiler.e_priority
                       (Compiler.decision_to_string e.Compiler.e_decision)
                       (json_str (Compiler.fields_to_string e.Compiler.e_fields))
                       (String.concat "," (List.map json_str (entry_lines e))))
                   tbl.Compiler.entries))
             (String.concat ","
                (List.map
                   (fun (s : Compiler.spill) ->
                     Printf.sprintf
                       {|{"dim":"%s","interval":[%d,%d],"cost":%d}|}
                       s.Compiler.sp_dim (fst s.Compiler.sp_interval)
                       (snd s.Compiler.sp_interval) s.Compiler.sp_cost)
                   tbl.Compiler.spills))
             tbl.Compiler.static_coverage tbl.Compiler.installed_coverage
             tbl.Compiler.truncated
             (match checked with
             | None -> ""
             | Some n -> Printf.sprintf {|,"verified_regions":%d|} n))
    | `Text ->
        Printf.printf
          "entries: %d\nstatic coverage: %.9g\ninstalled coverage: %.9g\n"
          n_entries tbl.Compiler.static_coverage tbl.Compiler.installed_coverage;
        if tbl.Compiler.truncated then
          Printf.printf
            "truncated: table exceeded %d entries; tail punts to the \
             controller\n"
            max_entries;
        List.iter
          (fun (s : Compiler.spill) ->
            Printf.printf
              "spill: %s interval [%d,%d] would need %d entries (budget \
               %d); region stays reactive\n"
              s.Compiler.sp_dim (fst s.Compiler.sp_interval)
              (snd s.Compiler.sp_interval) s.Compiler.sp_cost region_budget)
          tbl.Compiler.spills;
        List.iter
          (fun (e : Compiler.entry) ->
            Printf.printf "%5d %-5s %s%s\n" e.Compiler.e_priority
              (Compiler.decision_to_string e.Compiler.e_decision)
              (Compiler.fields_to_string e.Compiler.e_fields)
              (match entry_lines e with
              | [] -> ""
              | ls -> Printf.sprintf "  (%s)" (String.concat ", " ls)))
          tbl.Compiler.entries;
        match checked with
        | None -> ()
        | Some n -> Printf.printf "verified: %d regions agree\n" n);
    let budget =
      match max_entries_file with
      | None -> None
      | Some path -> (
          match int_of_string_opt (String.trim (read_file path)) with
          | Some n -> Some n
          | None ->
              Printf.eprintf "error: %s does not contain an integer\n" path;
              exit 1)
    in
    match budget with
    | Some b when n_entries > b ->
        Printf.eprintf
          "error: compiled table has %d entries, committed budget is %d\n"
          n_entries b;
        1
    | _ -> 0
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Lower a policy set's static slice into the priority-ordered \
          wildcard flow-table the proactive controller installs (netsim \
          --proactive), with range-to-prefix expansion, spillover back to \
          the reactive path, and optional translation validation (exit 1 = \
          compile failure, validation failure, or entry count over the \
          committed budget)")
    Term.(
      const run $ files $ max_entries $ region_budget $ max_entries_file
      $ verify $ analyze_format)

(* --- metrics: read back a JSON snapshot (netsim --metrics-json,
   identxxd --metrics) and re-render it --- *)

let metrics_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SNAPSHOT")
  in
  let format =
    Arg.(
      value
      & opt
          (enum [ ("prom", `Prom); ("json", `Json); ("summary", `Summary) ])
          `Prom
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,prom) (default, Prometheus text exposition), \
             $(b,json) (the snapshot, reparsed and pretty-printed), or \
             $(b,summary) (one line per series).")
  in
  let labels_str labels =
    match labels with
    | [] -> ""
    | labels ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
        ^ "}"
  in
  let run file format =
    match Obs.Json.of_string (read_file file) with
    | Error e ->
        Printf.eprintf "error: %s: %s\n" file e;
        1
    | Ok v -> (
        match Obs.Export.of_json v with
        | Error e ->
            Printf.eprintf "error: %s: %s\n" file e;
            1
        | Ok series ->
            (match format with
            | `Prom -> print_string (Obs.Export.prometheus_of_series series)
            | `Json -> print_endline (Obs.Json.to_string ~pretty:true v)
            | `Summary ->
                (* Group by label vector, not by name: with per-entity
                   labels (shard=, host=, dpid=) this renders one block
                   per entity instead of interleaving entities inside
                   every metric name. *)
                let series =
                  List.stable_sort
                    (fun (a : Obs.Registry.series) (b : Obs.Registry.series) ->
                      match
                        compare a.Obs.Registry.labels b.Obs.Registry.labels
                      with
                      | 0 -> compare a.Obs.Registry.name b.Obs.Registry.name
                      | c -> c)
                    series
                in
                List.iter
                  (fun (s : Obs.Registry.series) ->
                    let name = s.Obs.Registry.name ^ labels_str s.Obs.Registry.labels in
                    match s.Obs.Registry.value with
                    | Obs.Registry.Counter_v c ->
                        Printf.printf "counter   %s = %d\n" name c
                    | Obs.Registry.Gauge_v g ->
                        Printf.printf "gauge     %s = %g\n" name g
                    | Obs.Registry.Histogram_v { buckets; sum; count } ->
                        (* Quantiles estimated from the bucket counts
                           (Prometheus-style interpolation), so operators
                           get p50/p95/p99 without the Prometheus path. *)
                        if count = 0 then
                          Printf.printf "histogram %s count=%d sum=%g\n" name
                            count sum
                        else
                          let q p =
                            match
                              Obs.Registry.estimate_quantile ~buckets ~count p
                            with
                            | Some v -> Printf.sprintf "%g" v
                            | None -> "-"
                          in
                          Printf.printf
                            "histogram %s count=%d sum=%g p50=%s p95=%s p99=%s\n"
                            name count sum (q 0.5) (q 0.95) (q 0.99))
                  series);
            0)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Validate a JSON metrics snapshot and re-render it (exit 1 on \
          parse or schema errors)")
    Term.(const run $ file $ format)

(* --- trace: render exported spans (netsim --spans / --trace-out) as an
   indented per-flow timing tree --- *)

let trace_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"SPANS") in
  (* Span times are float seconds; the interesting magnitudes are
     microseconds, and %g keeps them short and byte-stable. *)
  let us f = f *. 1e6 in
  let j_str k v = Option.bind (Obs.Json.member k v) Obs.Json.to_str in
  let j_num k v = Option.bind (Obs.Json.member k v) Obs.Json.to_float in
  let j_list k v =
    match Obs.Json.member k v with Some l -> Obs.Json.to_list l | None -> []
  in
  let j_attrs v =
    match Obs.Json.member "attrs" v with
    | Some (Obs.Json.Obj kvs) ->
        List.filter_map
          (fun (k, av) -> Option.map (fun s -> (k, s)) (Obs.Json.to_str av))
          kvs
    | _ -> []
  in
  let pp_attrs b attrs =
    List.iter (fun (k, v) -> Printf.bprintf b " %s=%s" k v) attrs
  in
  let rec pp_span b indent v =
    let name = Option.value ~default:"?" (j_str "name" v) in
    let start = Option.value ~default:0. (j_num "start" v) in
    let children = j_list "children" v in
    Printf.bprintf b "%s%s @%gus" indent name (us start);
    (match j_num "end" v with
    | Some e ->
        let d = e -. start in
        Printf.bprintf b " +%gus" (us d);
        (* Self time: the span's duration not covered by its children —
           where this hop itself spent the flow's setup budget. *)
        if children <> [] then begin
          let child_time =
            List.fold_left
              (fun acc c ->
                match (j_num "start" c, j_num "end" c) with
                | Some s, Some e -> acc +. (e -. s)
                | _ -> acc)
              0. children
          in
          Printf.bprintf b " (self %gus)" (us (Float.max 0. (d -. child_time)))
        end
    | None -> Printf.bprintf b " (unfinished)");
    pp_attrs b (j_attrs v);
    Buffer.add_char b '\n';
    List.iter
      (fun ev ->
        let ename = Option.value ~default:"?" (j_str "name" ev) in
        let eat = Option.value ~default:0. (j_num "at" ev) in
        Printf.bprintf b "%s  - %s @%gus" indent ename (us eat);
        pp_attrs b (j_attrs ev);
        Buffer.add_char b '\n')
      (j_list "events" v);
    List.iter (pp_span b (indent ^ "  ")) children
  in
  let run file =
    let content = read_file file in
    (* Two on-disk shapes: the {"spans": [...], ...} object written by
       netsim --spans, or JSON Lines (one span object per line) written
       by netsim --trace-out. *)
    let parsed =
      match Obs.Json.of_string content with
      | Ok v -> (
          match Obs.Json.member "spans" v with
          | Some spans -> Ok (Obs.Json.to_list spans, Some v)
          | None -> Ok ([ v ], None))
      | Error _ -> (
          let lines =
            String.split_on_char '\n' content
            |> List.filter (fun l -> String.trim l <> "")
          in
          let rec parse acc = function
            | [] -> Ok (List.rev acc, None)
            | l :: rest -> (
                match Obs.Json.of_string l with
                | Ok v -> parse (v :: acc) rest
                | Error e -> Error e)
          in
          parse [] lines)
    in
    match parsed with
    | Error e ->
        Printf.eprintf "error: %s: %s\n" file e;
        1
    | Ok (spans, header) ->
        let b = Buffer.create 1024 in
        List.iter (pp_span b "") spans;
        Printf.bprintf b "%d trace(s)" (List.length spans);
        (match header with
        | Some v ->
            let n k =
              match Option.bind (Obs.Json.member k v) Obs.Json.to_int with
              | Some n -> n
              | None -> 0
            in
            Printf.bprintf b ", %d dropped (capacity), %d sampled out"
              (n "dropped") (n "sampled_out")
        | None -> ());
        Buffer.add_char b '\n';
        print_string (Buffer.contents b);
        0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Render exported flow-setup spans (netsim --spans or --trace-out) \
          as an indented timing tree with self-times")
    Term.(const run $ file)

(* --- health: the rule registry and flight-recorder dump renderer --- *)

let health_cmd =
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"DUMP") in
  let rules =
    Arg.(
      value & flag
      & info [ "rules" ]
          ~doc:
            "List the health rule registry (name, detection kind, watched \
             metric, grouping) instead of rendering a dump.")
  in
  let us f = f *. 1e6 in
  let j_str k v = Option.bind (Obs.Json.member k v) Obs.Json.to_str in
  let j_num k v = Option.bind (Obs.Json.member k v) Obs.Json.to_float in
  let print_rules () =
    List.iter
      (fun (r : Obs.Health.rule) ->
        Printf.printf "%s: %s on %s%s\n    %s\n" r.Obs.Health.r_name
          (Obs.Health.kind_to_string r.Obs.Health.r_kind)
          r.Obs.Health.r_metric
          (match r.Obs.Health.r_group_by with
          | [] -> ""
          | by -> " by " ^ String.concat "," by)
          r.Obs.Health.r_help)
      Obs.Health.default_rules
  in
  let render_dump file =
    let lines =
      String.split_on_char '\n' (read_file file)
      |> List.filter (fun l -> String.trim l <> "")
    in
    let rec parse acc = function
      | [] -> Ok (List.rev acc)
      | l :: rest -> (
          match Obs.Json.of_string l with
          | Ok v -> parse (v :: acc) rest
          | Error e -> Error e)
    in
    match parse [] lines with
    | Error e ->
        Printf.eprintf "error: %s: %s\n" file e;
        1
    | Ok [] ->
        Printf.eprintf "error: %s: empty dump\n" file;
        1
    | Ok (header :: events) ->
        (match j_str "kind" header with
        | Some "flight-recorder" -> ()
        | _ ->
            Printf.eprintf "error: %s: not a flight-recorder dump\n" file;
            exit 1);
        let reason = Option.value ~default:"?" (j_str "reason" header) in
        let at = Option.value ~default:0. (j_num "at" header) in
        let dropped = Option.value ~default:0. (j_num "dropped" header) in
        Printf.printf "flight recorder: %d events (%g dropped) dumped @%gus\n"
          (List.length events) dropped (us at);
        let is_rule =
          List.exists
            (fun (r : Obs.Health.rule) -> r.Obs.Health.r_name = reason)
            Obs.Health.default_rules
        in
        Printf.printf "%s: %s\n"
          (if is_rule then "trigger (health rule)" else "reason")
          reason;
        (* Per-kind totals, then the timeline itself (events arrive in
           canonical (at, kind, attrs) order from the dumper). *)
        let kinds = Hashtbl.create 8 in
        List.iter
          (fun ev ->
            let k = Option.value ~default:"?" (j_str "kind" ev) in
            Hashtbl.replace kinds k
              (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k)))
          events;
        let counts =
          Hashtbl.fold (fun k n acc -> (k, n) :: acc) kinds []
          |> List.sort compare
        in
        Printf.printf "by kind:%s\n"
          (String.concat ""
             (List.map (fun (k, n) -> Printf.sprintf " %s=%d" k n) counts));
        List.iter
          (fun ev ->
            let k = Option.value ~default:"?" (j_str "kind" ev) in
            let eat = Option.value ~default:0. (j_num "at" ev) in
            Printf.printf "  @%gus %s" (us eat) k;
            (match Obs.Json.member "attrs" ev with
            | Some (Obs.Json.Obj kvs) ->
                List.iter
                  (fun (ak, av) ->
                    match Obs.Json.to_str av with
                    | Some s -> Printf.printf " %s=%s" ak s
                    | None -> ())
                  kvs
            | _ -> ());
            print_newline ())
          events;
        0
  in
  let run file rules =
    if rules then begin
      print_rules ();
      0
    end
    else
      match file with
      | Some f -> render_dump f
      | None ->
          Printf.eprintf "error: health needs a DUMP file (or --rules)\n";
          1
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Render a flight-recorder dump (netsim --flight-out) as an event \
          timeline, or list the health rule registry with --rules")
    Term.(const run $ file $ rules)

(* --- signing workflow: keygen / sign / verify ---
   The delegation figures need requirements signed by a principal whose
   public handle appears in a controller dict. These commands drive the
   simulated-PKI scheme (see DESIGN.md section 2) from the shell. *)

let keygen_cmd =
  let owner = Arg.(required & pos 0 (some string) None & info [] ~docv:"OWNER") in
  let seed =
    Arg.(
      value
      & opt (some string) None
      & info [ "seed" ] ~docv:"SEED" ~doc:"Derivation seed (deterministic).")
  in
  let run owner seed =
    let kp = Idcrypto.Sign.generate ?seed owner in
    Printf.printf "owner:  %s\npublic: %s\nsecret: %s\n" kp.Idcrypto.Sign.owner
      kp.Idcrypto.Sign.public kp.Idcrypto.Sign.secret;
    0
  in
  Cmd.v
    (Cmd.info "keygen" ~doc:"Derive a deterministic keypair for a principal")
    Term.(const run $ owner $ seed)

let sign_cmd =
  let secret =
    Arg.(
      required
      & opt (some string) None
      & info [ "secret" ] ~docv:"SECRET" ~doc:"The signer's secret.")
  in
  let data = Arg.(non_empty & pos_all string [] & info [] ~docv:"DATA") in
  let run secret data =
    print_endline (Idcrypto.Sign.sign ~secret data);
    0
  in
  Cmd.v
    (Cmd.info "sign"
       ~doc:"Sign a data list (e.g. exe-hash app-name requirements) -> req-sig")
    Term.(const run $ secret $ data)

let verify_cmd =
  let public =
    Arg.(
      required
      & opt (some string) None
      & info [ "public" ] ~docv:"PUBLIC" ~doc:"The signer's public handle.")
  in
  let secret =
    Arg.(
      required
      & opt (some string) None
      & info [ "secret" ] ~docv:"SECRET"
          ~doc:
            "Verification material for the handle (the simulated PKI's \
             keystore entry).")
  in
  let signature =
    Arg.(
      required
      & opt (some string) None
      & info [ "signature" ] ~docv:"SIG" ~doc:"The tag to check.")
  in
  let data = Arg.(non_empty & pos_all string [] & info [] ~docv:"DATA") in
  let run public secret signature data =
    let ks = Idcrypto.Sign.keystore () in
    Idcrypto.Sign.register_public ks ~public ~secret;
    if Idcrypto.Sign.verify ks ~public ~signature data then begin
      print_endline "valid";
      0
    end
    else begin
      print_endline "INVALID";
      2
    end
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify a signature (exit 0 = valid, 2 = invalid)")
    Term.(const run $ public $ secret $ signature $ data)

let () =
  let info =
    Cmd.info "identxx_ctl" ~version:"1.0.0"
      ~doc:"ident++ / PF+=2 policy toolkit"
  in
  (* [analyze FILE...] predates the analyze subcommands; route anything
     that is not one of them to [analyze lint] so existing invocations
     keep working. *)
  let argv =
    let v = Sys.argv in
    if
      Array.length v > 1
      && v.(1) = "analyze"
      && (Array.length v = 2
         || not
              (List.mem v.(2)
                 [ "equiv"; "diff"; "slice"; "lint"; "--help"; "--version" ]))
    then
      Array.concat
        [ [| v.(0); "analyze"; "lint" |]; Array.sub v 2 (Array.length v - 2) ]
    else v
  in
  exit
    (Cmd.eval' ~argv
       (Cmd.group info
          [
            check_cmd; fmt_cmd; eval_cmd; daemon_check_cmd; analyze_cmd;
            compile_cmd; matrix_cmd; metrics_cmd; trace_cmd; health_cmd;
            keygen_cmd; sign_cmd; verify_cmd;
          ]))
