(* §4 Incremental Benefit.

   (a) Daemon-only deployment: no ident++ firewalls anywhere, but a
   server uses the protocol directly (like classic RFC-1413 ident) to
   distinguish the users of two connections arriving from the same
   client machine — e.g. behind a NAT or on a shared multi-user host.

   (b) Controller-only deployment: end-hosts run no daemons; the
   controller answers queries from its own asset database and can still
   enforce host-level (though not user-level) policy.
   Run with: dune exec examples/nat_ident.exe *)

open Netcore
module C = Identxx_core.Controller
module Deploy = Identxx_core.Deploy
module PS = Identxx_core.Policy_store

let part_a () =
  print_endline "=== (a) daemon-only: distinguishing users on a shared host ===";
  let shared =
    Identxx.Host.create ~name:"shared" ~mac:(Mac.of_int 1)
      ~ip:(Ipv4.of_string "10.0.0.1") ()
  in
  let server_ip = Ipv4.of_string "10.0.0.99" in
  (* Two users on the same machine each open a connection to the server
     from the same address — only the source port differs. *)
  let alice = Identxx.Host.run shared ~user:"alice" ~exe:"/usr/bin/irc" () in
  let bob = Identxx.Host.run shared ~user:"bob" ~exe:"/usr/bin/irc" () in
  let f_alice =
    Identxx.Host.connect shared ~proc:alice ~dst:server_ip ~dst_port:6667 ()
  in
  let f_bob =
    Identxx.Host.connect shared ~proc:bob ~dst:server_ip ~dst_port:6667 ()
  in
  (* The server queries the shared host's daemon over the wire format. *)
  let query_user flow =
    let q = Identxx.Query.make ~flow [ Identxx.Key_value.user_id ] in
    let pkt =
      Identxx.Wire.query_packet ~to_ip:flow.Five_tuple.src
        ~from_ip:flow.Five_tuple.dst q
    in
    match Identxx.Host.handle_packet shared pkt with
    | None -> None
    | Some reply -> (
        match Identxx.Wire.classify reply with
        | Identxx.Wire.Response { response; _ } ->
            Identxx.Response.latest response Identxx.Key_value.user_id
        | _ -> None)
  in
  let ua = query_user f_alice and ub = query_user f_bob in
  Printf.printf "connection %s -> user %s\n"
    (Five_tuple.to_string f_alice)
    (Option.value ~default:"?" ua);
  Printf.printf "connection %s -> user %s\n"
    (Five_tuple.to_string f_bob)
    (Option.value ~default:"?" ub);
  ua = Some "alice" && ub = Some "bob"

let part_b () =
  print_endline "\n=== (b) controller-only: no daemons on end-hosts ===";
  let s = Deploy.simple_network () in
  (* Hosts do not run daemons (silent). *)
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.client) Identxx.Daemon.Silent;
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.server) Identxx.Daemon.Silent;
  (* The controller's asset database, as the policy's intercepts: the
     client machine is a kiosk, the server is the payroll service.
     Policy: kiosks may not reach payroll. *)
  PS.add_exn (C.policy s.controller) ~name:"00-assets"
    (Printf.sprintf
       "block all with eq(@src[asset-class], kiosk) with eq(@dst[asset-class], \
        payroll)\n\
        pass all with eq(@src[asset-class], kiosk) with eq(@dst[asset-class], \
        workstation)\n\
        intercept query to %s answer { asset-class : kiosk }\n\
        intercept query to %s answer { asset-class : payroll }"
       (Ipv4.to_string (Identxx.Host.ip s.client))
       (Ipv4.to_string (Identxx.Host.ip s.server)));
  (* Default is pass; the block rule is the one that must fire. *)
  let proc = Identxx.Host.run s.client ~user:"kiosk" ~exe:"/usr/bin/browser" () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~dst_port:443 ()
  in
  Openflow.Network.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  Sim.Engine.run s.engine;
  let st = C.stats s.controller in
  Printf.printf
    "kiosk -> payroll: blocked=%d, wire queries=%d, local answers=%d\n"
    st.C.blocked st.C.queries_sent st.C.queries_answered_locally;
  st.C.blocked = 1 && st.C.queries_sent = 0 && st.C.queries_answered_locally = 2

let () =
  let a = part_a () in
  let b = part_b () in
  if a && b then print_endline "\nnat_ident OK: both partial deployments work"
  else begin
    print_endline "\nnat_ident FAILED";
    exit 1
  end
