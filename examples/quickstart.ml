(* Quickstart: the Figure-1 sequence on a one-switch network.

   A client opens a TCP connection to a server. The first packet misses
   the switch's flow table and goes to the controller, which queries the
   ident++ daemons on both hosts, evaluates a PF+=2 policy over the
   returned key-value pairs, installs flow entries, and releases the
   packet. Run with: dune exec examples/quickstart.exe *)

module C = Identxx_core.Controller
module Deploy = Identxx_core.Deploy
module Net = Openflow.Network

let policy =
  "allowed = \"{ firefox ssh }\"\n\
   block all\n\
   pass all with member(@src[name], $allowed) keep state"

let () =
  let s = Deploy.simple_network () in
  Sim.Trace.set_enabled (Net.trace s.network) true;
  Identxx_core.Policy_store.add_exn (C.policy s.controller) ~name:"00-quickstart"
    policy;

  (* Alice runs firefox on the client and connects to the server. *)
  let proc =
    Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" ()
  in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~dst_port:80 ()
  in
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.run s.engine;

  print_endline "=== simulated event trace (Figure 1) ===";
  Format.printf "%a@." Sim.Trace.pp (Net.trace s.network);

  let st = C.stats s.controller in
  Printf.printf
    "=== controller stats ===\n\
     flows seen: %d\nallowed:    %d\nblocked:    %d\nqueries:    %d\n\
     responses:  %d\n"
    st.C.flows_seen st.C.allowed st.C.blocked st.C.queries_sent
    st.C.responses_received;

  (* A disallowed application is blocked by the same policy. *)
  let proc2 = Identxx.Host.run s.client ~user:"bob" ~exe:"/usr/bin/telnet" () in
  let flow2 =
    Identxx.Host.connect s.client ~proc:proc2 ~dst:(Identxx.Host.ip s.server)
      ~dst_port:23 ()
  in
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow:flow2);
  Sim.Engine.run s.engine;
  let st = C.stats s.controller in
  Printf.printf "\nafter telnet attempt: allowed=%d blocked=%d\n" st.C.allowed
    st.C.blocked;
  if st.C.allowed = 1 && st.C.blocked = 1 then
    print_endline "\nquickstart OK: firefox passed, telnet blocked"
  else begin
    print_endline "\nquickstart FAILED";
    exit 1
  end
