open Netcore
module FI = Baselines.Flow_info

let zipf_pick prng ~n =
  if n <= 0 then invalid_arg "Flowgen.zipf_pick: n must be positive";
  (* Inverse-CDF over harmonic weights; fine for the n (<= a few
     thousand) used in experiments. *)
  let h = ref 0.0 in
  for k = 1 to n do
    h := !h +. (1.0 /. float_of_int k)
  done;
  let u = Sim.Prng.float prng !h in
  let rec go k acc =
    if k > n then n - 1
    else
      let acc = acc +. (1.0 /. float_of_int k) in
      if u <= acc then k - 1 else go (k + 1) acc
  in
  go 1 0.0

let important_ip population = (Population.important_server population).Population.ip

let intent_of population (fi : FI.t) =
  let is_important = Ipv4.equal fi.flow.Five_tuple.dst (important_ip population) in
  let src_internal = Prefix.mem fi.flow.Five_tuple.src Population.lan_prefix in
  match fi.src.FI.app with
  | None -> false (* external or unattributable sources may not initiate *)
  | Some app ->
      let { Population.approved; _ } = Population.app_named app in
      if not src_internal then false
      else if app = "skype" then not is_important
      else approved

(* The default intent closes over a canonical population: only the
   important server's address matters, and it is fixed (10.1.0.1). *)
let intent_default fi =
  intent_of (Population.create ~clients:1 ~servers:1 ()) fi

let intent_of_population population fi = intent_of population fi

let endpoint_of_host (h : Population.host) ~app ~version =
  FI.endpoint ~user:h.Population.user ~groups:h.Population.groups ?app ?version ()

let ephemeral prng = 49152 + Sim.Prng.int prng 16000

let mixed ?(intent = intent_default) ~prng ~population ~count () =
  let clients = Population.clients population in
  let servers = Population.servers population in
  let apps = Array.of_list Population.catalog in
  let pick_app () =
    (* Weight toward approved interactive apps but keep the full mix. *)
    let a = Sim.Prng.pick prng apps in
    if (not a.Population.approved) && Sim.Prng.bool prng then
      Sim.Prng.pick prng apps
    else a
  in
  let make_flow i =
    let kind = Sim.Prng.int prng 10 in
    if kind < 7 then begin
      (* Client to server. *)
      let c = Sim.Prng.pick prng clients in
      let s = servers.(zipf_pick prng ~n:(Array.length servers)) in
      let app = pick_app () in
      let flow =
        Five_tuple.tcp ~src:c.Population.ip ~dst:s.Population.ip
          ~src_port:(ephemeral prng) ~dst_port:app.Population.app_port
      in
      FI.make
        ~src:(endpoint_of_host c ~app:(Some app.Population.app_name) ~version:(Some "210"))
        ~dst:(endpoint_of_host s ~app:(Some "server") ~version:None)
        flow
    end
    else if kind < 9 then begin
      (* Client to client: the peer-to-peer (skype) case. *)
      let a = Sim.Prng.pick prng clients in
      let b = Sim.Prng.pick prng clients in
      let flow =
        Five_tuple.tcp ~src:a.Population.ip ~dst:b.Population.ip
          ~src_port:(ephemeral prng) ~dst_port:80
      in
      FI.make
        ~src:(endpoint_of_host a ~app:(Some "skype") ~version:(Some "210"))
        ~dst:(endpoint_of_host b ~app:(Some "skype") ~version:(Some "210"))
        flow
    end
    else begin
      (* Internet to server. *)
      let s = Sim.Prng.pick prng servers in
      let flow =
        Five_tuple.tcp ~src:(Population.external_ip i) ~dst:s.Population.ip
          ~src_port:(ephemeral prng) ~dst_port:80
      in
      FI.make ~src:FI.nobody
        ~dst:(endpoint_of_host s ~app:(Some "server") ~version:None)
        flow
    end
  in
  List.init count (fun i ->
      let fi = make_flow i in
      { fi with FI.legitimate = intent fi })

let distinct_tuples ~population ~count =
  let clients = Population.clients population in
  let servers = Population.servers population in
  List.init count (fun i ->
      let c = clients.(i mod Array.length clients) in
      let s = servers.(i mod Array.length servers) in
      Five_tuple.tcp ~src:c.Population.ip ~dst:s.Population.ip
        ~src_port:(10000 + (i mod 50000))
        ~dst_port:(80 + (i / 50000)))
