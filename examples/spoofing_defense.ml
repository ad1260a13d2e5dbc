(* Response spoofing and its defense.

   ident++ responses travel as ordinary packets with a spoofable source
   address. A compromised machine can therefore fabricate the *other*
   end's response and talk its way past information-dependent policy.
   §5.3 already requires delegation requests to be signed with the
   user's key; this deployment extends the same mechanism to responses
   (doc/PROTOCOL.md §6): daemons sign, the controller rejects anything
   its keystore cannot authenticate, or that a key not bound to the
   answering host signed.
   Run with: dune exec examples/spoofing_defense.exe *)

module Net = Openflow.Network
module C = Identxx_core.Controller
module Deploy = Identxx_core.Deploy
module PS = Identxx_core.Policy_store

let policy = "block all\npass all with eq(@dst[clearance], top-secret)"

let attack ~signed () =
  let config =
    { C.default_config with C.require_signed_responses = signed }
  in
  let s = Deploy.simple_network ~config () in
  PS.add_exn (C.policy s.controller) ~name:"00" policy;
  if signed then begin
    (* Each daemon's key is trusted for its own host's address only. *)
    ignore (Deploy.sign_host s.controller s.client);
    ignore (Deploy.sign_host s.controller s.server)
  end;
  (* The server's real daemon never claims top-secret clearance. *)
  Identxx.Daemon.set_behaviour (Identxx.Host.daemon s.server)
    Identxx.Daemon.Silent;
  let proc = Identxx.Host.run s.client ~user:"mallory" ~exe:"/bin/tool" () in
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~dst_port:443 ()
  in
  Net.send_from_host s.network ~name:"client"
    (Identxx.Host.first_packet s.client ~flow);
  (* Mallory injects a response pretending to come from the server. *)
  let forged =
    Identxx.Wire.response_packet
      ~to_ip:(Identxx.Host.ip s.client)
      ~from_ip:(Identxx.Host.ip s.server)
      ~dst_port:49152
      (Identxx.Response.make ~flow
         [ [ Identxx.Key_value.pair "clearance" "top-secret" ] ])
  in
  Sim.Engine.schedule s.engine ~delay:(Sim.Time.us 200) (fun () ->
      Net.send_from_host s.network ~name:"client" forged);
  Sim.Engine.run s.engine;
  C.stats s.controller

let () =
  print_endline "=== response spoofing (S5.3-style hardening) ===";
  let unsigned = attack ~signed:false () in
  Printf.printf
    "unsigned deployment:  allowed=%d blocked=%d (forged response BELIEVED)\n"
    unsigned.C.allowed unsigned.C.blocked;
  let signed = attack ~signed:true () in
  Printf.printf
    "signed deployment:    allowed=%d blocked=%d rejected=%d (forgery discarded, fails closed)\n"
    signed.C.allowed signed.C.blocked signed.C.responses_rejected;
  if
    unsigned.C.allowed = 1 && signed.C.allowed = 0 && signed.C.blocked = 1
    && signed.C.responses_rejected >= 1
  then print_endline "\nspoofing_defense OK: signatures close the spoofing hole"
  else begin
    print_endline "\nspoofing_defense FAILED";
    exit 1
  end
