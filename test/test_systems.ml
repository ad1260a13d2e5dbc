(* Tests for the baseline enforcement systems (§5/§6 comparisons) and
   the synthetic workload generators. *)

open Netcore
module FI = Baselines.Flow_info
module E = Baselines.Enforcement

let check = Alcotest.check
let ip = Ipv4.of_string

let flow ?(sp = 40000) ?(dp = 80) src dst =
  Five_tuple.tcp ~src:(ip src) ~dst:(ip dst) ~src_port:sp ~dst_port:dp

(* --- Flow_info --- *)

let test_honest_response_carries_truth () =
  let fi =
    FI.make
      ~src:(FI.endpoint ~user:"alice" ~groups:[ "staff" ] ~app:"skype" ~version:"210" ())
      (flow "10.0.0.1" "10.0.0.2")
  in
  match FI.honest_response fi `Src with
  | None -> Alcotest.fail "expected a response"
  | Some r ->
      check Alcotest.(option string) "user" (Some "alice")
        (Identxx.Response.latest r "userID");
      check Alcotest.(option string) "app" (Some "skype")
        (Identxx.Response.latest r "name");
      check Alcotest.(option string) "app-name alias" (Some "skype")
        (Identxx.Response.latest r "app-name")

let test_unknown_end_has_no_response () =
  let fi = FI.make (flow "8.8.8.8" "10.0.0.2") in
  check Alcotest.bool "nobody yields none" true (FI.honest_response fi `Src = None)

let test_compromised_end_reports_claim () =
  let fi =
    FI.make
      ~src:(FI.endpoint ~user:"mallory" ~app:"worm" ~compromised:true ())
      (flow "10.0.0.1" "10.0.0.2")
  in
  let claim = [ Identxx.Key_value.pair "name" "firefox" ] in
  match FI.reported_response fi `Src ~claim with
  | Some r ->
      check Alcotest.(option string) "claims firefox" (Some "firefox")
        (Identxx.Response.latest r "name");
      check Alcotest.(option string) "truth suppressed" None
        (Identxx.Response.latest r "userID")
  | None -> Alcotest.fail "compromised host still answers"

(* --- Systems --- *)

let lan_policy_ports =
  "table <lan> { 10.0.0.0/8 }\nblock all\npass from <lan> to <lan> port 80"

let test_vanilla_rejects_with_clauses () =
  match Baselines.Systems.vanilla ~policy:"pass all with eq(@src[name], x)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "vanilla must reject with clauses"

let test_vanilla_port_decisions () =
  let v = Baselines.Systems.vanilla_exn ~policy:lan_policy_ports in
  let in_lan = FI.make (flow ~dp:80 "10.0.0.1" "10.0.0.2") in
  let wrong_port = FI.make (flow ~dp:23 "10.0.0.1" "10.0.0.2") in
  let outside = FI.make (flow ~dp:80 "8.8.8.8" "10.0.0.2") in
  check Alcotest.bool "lan:80 admitted" true (v.E.admits in_lan);
  check Alcotest.bool ":23 denied" false (v.E.admits wrong_port);
  check Alcotest.bool "external denied" false (v.E.admits outside)

let test_vanilla_blind_to_apps () =
  (* Port 80 is port 80, whatever the application: the §1 example. *)
  let v = Baselines.Systems.vanilla_exn ~policy:lan_policy_ports in
  let skype =
    FI.make
      ~src:(FI.endpoint ~user:"u" ~app:"skype" ())
      (flow ~dp:80 "10.0.0.1" "10.0.0.2")
  in
  check Alcotest.bool "skype-on-80 admitted by port filter" true (v.E.admits skype)

let ethane_policy =
  "block all\npass from any with member(@src[groupID], staff) to any"

let test_ethane_sees_users_not_apps () =
  let e = Baselines.Systems.ethane_exn ~policy:ethane_policy in
  let staffer =
    FI.make
      ~src:(FI.endpoint ~user:"alice" ~groups:[ "staff" ] ~app:"worm" ())
      (flow "10.0.0.1" "10.0.0.2")
  in
  let stranger = FI.make (flow "8.8.8.8" "10.0.0.2") in
  check Alcotest.bool "staff admitted (app invisible)" true (e.E.admits staffer);
  check Alcotest.bool "unbound source denied" false (e.E.admits stranger)

let test_ethane_rejects_app_policy () =
  match Baselines.Systems.ethane ~policy:"pass all with eq(@src[name], x)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ethane cannot reference application keys"

let test_ethane_binding_resists_lies () =
  (* A compromised host cannot forge another user's network binding. *)
  let e = Baselines.Systems.ethane_exn ~policy:ethane_policy in
  let liar =
    FI.make
      ~src:(FI.endpoint ~user:"guest" ~groups:[ "guests" ] ~compromised:true ())
      (flow "10.0.0.1" "10.0.0.2")
  in
  check Alcotest.bool "lying does not help under ethane" false (e.E.admits liar)

let test_distributed_compromised_receiver_unprotected () =
  let d =
    Baselines.Systems.distributed_exn
      ~policy:"block all\npass all with eq(@dst[userID], system)"
  in
  let to_honest =
    FI.make
      ~dst:(FI.endpoint ~user:"alice" ())
      (flow "10.0.0.1" "10.0.0.2")
  in
  let to_compromised =
    FI.make
      ~dst:(FI.endpoint ~user:"alice" ~compromised:true ())
      (flow "10.0.0.1" "10.0.0.2")
  in
  check Alcotest.bool "honest receiver enforces" false (d.E.admits to_honest);
  check Alcotest.bool "compromised receiver enforces nothing" true
    (d.E.admits to_compromised)

let test_identxx_lying_daemon_changes_outcome () =
  let policy = "block all\npass all with eq(@src[name], firefox)" in
  let honest_sys = Baselines.Systems.identxx_exn ~policy () in
  let claim = [ Identxx.Key_value.pair "name" "firefox" ] in
  let sys = Baselines.Systems.identxx_exn ~attacker_claim:claim ~policy () in
  let worm_honest =
    FI.make ~src:(FI.endpoint ~user:"u" ~app:"worm" ()) (flow "10.0.0.1" "10.0.0.2")
  in
  let worm_lying =
    FI.make
      ~src:(FI.endpoint ~user:"u" ~app:"worm" ~compromised:true ())
      (flow "10.0.0.1" "10.0.0.2")
  in
  check Alcotest.bool "honest worm denied" false (honest_sys.E.admits worm_honest);
  check Alcotest.bool "lying worm admitted (S5.3)" true (sys.E.admits worm_lying)

let test_score_accounting () =
  let sys = Baselines.Systems.vanilla_exn ~policy:lan_policy_ports in
  let flows =
    [
      FI.make ~legitimate:true (flow ~dp:80 "10.0.0.1" "10.0.0.2");
      (* admitted, legit *)
      FI.make ~legitimate:false (flow ~dp:80 "10.0.0.3" "10.0.0.2");
      (* admitted, illegit -> false allow *)
      FI.make ~legitimate:true (flow ~dp:23 "10.0.0.1" "10.0.0.2");
      (* denied, legit -> false deny *)
      FI.make ~legitimate:false (flow ~dp:23 "8.8.8.8" "10.0.0.2");
      (* denied, illegit *)
    ]
  in
  let s = E.score sys flows in
  check Alcotest.int "total" 4 s.E.total;
  check Alcotest.int "admitted" 2 s.E.admitted;
  check Alcotest.int "false allows" 1 s.E.false_allows;
  check Alcotest.int "false denies" 1 s.E.false_denies;
  check (Alcotest.float 1e-9) "accuracy" 0.5 (E.accuracy s)

(* --- Workload --- *)

let test_population_shape () =
  let p = Workload.Population.create ~clients:10 ~servers:3 () in
  check Alcotest.int "clients" 10 (Array.length (Workload.Population.clients p));
  check Alcotest.int "servers" 3 (Array.length (Workload.Population.servers p));
  check Alcotest.string "important server" "10.1.0.1"
    (Ipv4.to_string (Workload.Population.important_server p).Workload.Population.ip);
  (* Every host is inside the LAN prefix and addresses are unique. *)
  let all = Workload.Population.all p in
  Array.iter
    (fun (h : Workload.Population.host) ->
      check Alcotest.bool "in lan" true
        (Prefix.mem h.Workload.Population.ip Workload.Population.lan_prefix))
    all;
  let ips =
    Array.to_list (Array.map (fun h -> h.Workload.Population.ip) all)
  in
  check Alcotest.int "unique ips" (List.length ips)
    (List.length (List.sort_uniq Ipv4.compare ips))

let test_population_lookup () =
  let p = Workload.Population.create ~clients:5 ~servers:2 () in
  let c0 = (Workload.Population.clients p).(0) in
  match Workload.Population.host_by_ip p c0.Workload.Population.ip with
  | Some h -> check Alcotest.string "found" c0.Workload.Population.name h.Workload.Population.name
  | None -> Alcotest.fail "host_by_ip failed"

let test_flowgen_deterministic () =
  let p = Workload.Population.create ~clients:10 ~servers:3 () in
  let run seed =
    let prng = Sim.Prng.create seed in
    List.map
      (fun (fi : FI.t) -> Five_tuple.to_string fi.FI.flow)
      (Workload.Flowgen.mixed ~prng ~population:p ~count:50 ())
  in
  check Alcotest.(list string) "same seed same flows" (run 5) (run 5);
  check Alcotest.bool "different seeds differ" false (run 5 = run 6)

let test_flowgen_labels_follow_intent () =
  let p = Workload.Population.create ~clients:10 ~servers:3 () in
  let intent = Workload.Flowgen.intent_of_population p in
  let prng = Sim.Prng.create 11 in
  let flows = Workload.Flowgen.mixed ~intent ~prng ~population:p ~count:200 () in
  check Alcotest.int "every label equals intent" 200
    (List.length (List.filter (fun fi -> fi.FI.legitimate = intent fi) flows))

let test_flowgen_distinct_tuples () =
  let p = Workload.Population.create ~clients:7 ~servers:3 () in
  let tuples = Workload.Flowgen.distinct_tuples ~population:p ~count:500 in
  check Alcotest.int "pairwise distinct" 500
    (List.length (List.sort_uniq Five_tuple.compare tuples))

let test_zipf_prefers_low_indices () =
  let prng = Sim.Prng.create 3 in
  let counts = Array.make 10 0 in
  for _ = 1 to 2000 do
    let i = Workload.Flowgen.zipf_pick prng ~n:10 in
    counts.(i) <- counts.(i) + 1
  done;
  check Alcotest.bool "rank 0 beats rank 9" true (counts.(0) > counts.(9) * 2);
  check Alcotest.int "all picks in range" 2000 (Array.fold_left ( + ) 0 counts)

let test_worm_scan_shape () =
  let p = Workload.Population.create ~clients:5 ~servers:2 () in
  let from = (Workload.Population.clients p).(0) in
  let scan = Workload.Attack.worm_scan ~from ~targets:(Workload.Population.all p) () in
  check Alcotest.int "one probe per other host" 6 (List.length scan);
  List.iter
    (fun (fi : FI.t) ->
      check Alcotest.bool "illegitimate" false fi.FI.legitimate;
      check Alcotest.bool "compromised src" true fi.FI.src.FI.compromised;
      check Alcotest.int "port 445" 445 fi.FI.flow.Five_tuple.dst_port)
    scan

let test_reachable_pairs_bounds () =
  let p = Workload.Population.create ~clients:4 ~servers:2 () in
  let n = Array.length (Workload.Population.all p) in
  let allow_all = Baselines.Systems.vanilla_exn ~policy:"pass all" in
  let deny_all = Baselines.Systems.vanilla_exn ~policy:"block all" in
  check Alcotest.int "allow-all reaches every ordered pair" (n * (n - 1))
    (Workload.Attack.reachable_pairs allow_all ~population:p ~compromised:[] ());
  check Alcotest.int "deny-all reaches none" 0
    (Workload.Attack.reachable_pairs deny_all ~population:p ~compromised:[] ())

let () =
  Alcotest.run "systems"
    [
      ( "flow_info",
        [
          Alcotest.test_case "honest response" `Quick test_honest_response_carries_truth;
          Alcotest.test_case "unknown end" `Quick test_unknown_end_has_no_response;
          Alcotest.test_case "compromised claim" `Quick
            test_compromised_end_reports_claim;
        ] );
      ( "systems",
        [
          Alcotest.test_case "vanilla rejects with" `Quick
            test_vanilla_rejects_with_clauses;
          Alcotest.test_case "vanilla port decisions" `Quick
            test_vanilla_port_decisions;
          Alcotest.test_case "vanilla blind to apps" `Quick
            test_vanilla_blind_to_apps;
          Alcotest.test_case "ethane users not apps" `Quick
            test_ethane_sees_users_not_apps;
          Alcotest.test_case "ethane rejects app policy" `Quick
            test_ethane_rejects_app_policy;
          Alcotest.test_case "ethane resists lies" `Quick
            test_ethane_binding_resists_lies;
          Alcotest.test_case "distributed compromised receiver" `Quick
            test_distributed_compromised_receiver_unprotected;
          Alcotest.test_case "identxx lying daemon" `Quick
            test_identxx_lying_daemon_changes_outcome;
          Alcotest.test_case "score accounting" `Quick test_score_accounting;
        ] );
      ( "workload",
        [
          Alcotest.test_case "population shape" `Quick test_population_shape;
          Alcotest.test_case "population lookup" `Quick test_population_lookup;
          Alcotest.test_case "flowgen deterministic" `Quick
            test_flowgen_deterministic;
          Alcotest.test_case "labels follow intent" `Quick
            test_flowgen_labels_follow_intent;
          Alcotest.test_case "distinct tuples" `Quick test_flowgen_distinct_tuples;
          Alcotest.test_case "zipf skew" `Quick test_zipf_prefers_low_indices;
          Alcotest.test_case "worm scan shape" `Quick test_worm_scan_shape;
          Alcotest.test_case "reachable pairs bounds" `Quick
            test_reachable_pairs_bounds;
        ] );
    ]
