(* The flow-setup fast path: the answer-reuse table (its settled
   entries are the attribute cache), the decision cache that each policy
   revision clears, and the silent-host circuit breaker — both the cache
   modules in isolation and the controller integration (cache hits must
   skip daemon queries; a new policy revision (its epoch bump) and
   revocation must prevent stale decisions; the breaker must trip after N timeouts and re-probe after
   the backoff window). *)

open Netcore

let eval_exn env ctx flow =
  match Pf.Eval.eval env ctx flow with Ok v -> v | Error e -> invalid_arg e

module Net = Openflow.Network
module C = Identxx_core.Controller
module Deploy = Identxx_core.Deploy
module Policy_store = Identxx_core.Policy_store

let ip = Ipv4.of_string
let check = Alcotest.check

(* --- Answers unit tests --- *)

module Answers = Fastpath.Answers

let resp ?(pairs = [ ("userID", "alice") ]) () =
  let flow =
    Five_tuple.tcp ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:50000
      ~dst_port:80
  in
  Identxx.Response.make ~flow
    [ List.map (fun (k, v) -> Identxx.Key_value.pair k v) pairs ]

(* The flow whose destination, a listener on port 80, gave [resp]. *)
let resp_flow =
  Five_tuple.tcp ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:50000
    ~dst_port:80

let socket = Identxx.Signed.Socket

(* A table that keeps settled answers, as with the fast path on. *)
let reuse_table ?capacity ~ttl () =
  Answers.create ?capacity ~ttl ~reuse:true ()

(* [flow]'s destination answers [response], declaring [scope]: the
   exchange opens and settles at once. *)
let store ?(scope = socket) ?(signer = "") t ~now ~hints ~flow response =
  match Answers.join t ~hints ~flow ~joinable:false () with
  | `First ex -> ignore (Answers.settle t ~now ~signer ex (Some (scope, response)))
  | `Joined | `Alone -> Alcotest.fail "no exchange opened"

let test_attr_ttl () =
  let c = reuse_table ~ttl:(Sim.Time.ms 10) () in
  let hints = Answers.hint_key [ "userID"; "name" ] and flow = resp_flow in
  store c ~now:Sim.Time.zero ~hints ~flow (resp ());
  check Alcotest.bool "live before ttl" true
    (Answers.find c ~now:(Sim.Time.ms 9) ~hints ~flow <> None);
  (* The hint list is order-insensitive, and another flow to the same
     socket finds the listener's answer. *)
  check Alcotest.bool "key order ignored, other flow" true
    (Answers.find c ~now:(Sim.Time.ms 9)
       ~hints:(Answers.hint_key [ "name"; "userID"; "name" ])
       ~flow:
         (Five_tuple.make ~src:(ip "10.0.0.7") ~dst:flow.dst ~proto:flow.proto
            ~src_port:41000 ~dst_port:flow.dst_port)
    <> None);
  check Alcotest.bool "another port misses" true
    (Answers.find c ~now:(Sim.Time.ms 9) ~hints
       ~flow:
         (Five_tuple.make ~src:flow.src ~dst:flow.dst ~proto:flow.proto
            ~src_port:flow.src_port ~dst_port:443)
    = None);
  check Alcotest.bool "expired at ttl" true
    (Answers.find c ~now:(Sim.Time.ms 10) ~hints ~flow = None);
  check Alcotest.int "hits" 2 (Answers.hits c);
  check Alcotest.int "misses" 2 (Answers.misses c);
  check Alcotest.int "expired entry dropped" 0 (Answers.size c);
  (* An answer that holds for its own flow only is never kept. *)
  store c ~scope:Identxx.Signed.Flow ~now:Sim.Time.zero ~hints ~flow (resp ());
  check Alcotest.int "flow scope not kept" 0 (Answers.size c)

let test_attr_self_expiry () =
  (* A response-carried "expires" key caps the lifetime below the
     configured TTL. *)
  let c = reuse_table ~ttl:(Sim.Time.s 60) () in
  let hints = Answers.hint_key [ "userID" ] and flow = resp_flow in
  store c ~now:Sim.Time.zero ~hints ~flow
    (resp ~pairs:[ ("userID", "alice"); ("expires", "0.5") ] ());
  check Alcotest.bool "live before self-expiry" true
    (Answers.find c ~now:(Sim.Time.ms 499) ~hints ~flow <> None);
  check Alcotest.bool "dead after self-expiry" true
    (Answers.find c ~now:(Sim.Time.ms 500) ~hints ~flow = None)

let test_attr_capacity_and_invalidation () =
  let c = reuse_table ~capacity:2 ~ttl:(Sim.Time.s 1) () in
  let hints = Answers.hint_key [ "userID" ] in
  let flow i =
    Five_tuple.tcp ~src:(ip "10.0.0.99") ~dst:(Ipv4.of_octets 10 0 0 i)
      ~src_port:50000 ~dst_port:80
  in
  let store i = store c ~now:Sim.Time.zero ~hints ~flow:(flow i) (resp ()) in
  store 1;
  store 2;
  store 3;
  (* FIFO: host 1 evicted. *)
  check Alcotest.int "capacity bound" 2 (Answers.size c);
  check Alcotest.int "one eviction" 1 (Answers.evictions c);
  check Alcotest.bool "oldest gone" true
    (Answers.find c ~now:Sim.Time.zero ~hints ~flow:(flow 1) = None);
  Answers.drop_host c (Ipv4.of_octets 10 0 0 2);
  check Alcotest.int "invalidation counted" 1 (Answers.invalidations c);
  check Alcotest.int "one left" 1 (Answers.size c)

(* A flow from a client to port [port] of the listener at 10.0.0.2. *)
let flow_to ?(src = "10.0.0.1") port =
  Five_tuple.tcp ~src:(ip src) ~dst:(ip "10.0.0.2") ~src_port:50000
    ~dst_port:port

let first = function
  | `First ex -> ex
  | `Joined | `Alone -> Alcotest.fail "the query should open an exchange"

let test_open_join_settle () =
  let t = Answers.create ~ttl:(Sim.Time.s 1) ~reuse:false () in
  let join ?(hints = "name,userID") ?(port = 80) ?(joinable = true) w =
    Answers.join t ~hints ~flow:(flow_to port) ~joinable w
  in
  let ex = first (join "w1") in
  check Alcotest.bool "second joins" true (join "w2" = `Joined);
  check Alcotest.bool "different hints open their own" true
    (match join ~hints:"name" "w3" with `First _ -> true | _ -> false);
  check Alcotest.bool "different socket opens its own" true
    (match join ~port:81 "w4" with `First _ -> true | _ -> false);
  check Alcotest.bool "an unjoinable query goes alone" true
    (join ~joinable:false "w5" = `Alone);
  check Alcotest.bool "nothing to share: alone" true
    (join ~port:82 ~joinable:false "w6" = `Alone);
  check Alcotest.int "three exchanges in flight" 3 (Answers.in_flight t);
  check
    Alcotest.(list string)
    "settle returns join order" [ "w1"; "w2" ]
    (Answers.settle t ~now:Sim.Time.zero ~signer:"" ex (Some (socket, resp ())));
  check Alcotest.(list string) "settled exchange is gone" []
    (Answers.settle t ~now:Sim.Time.zero ~signer:"" ex None);
  check Alcotest.int "without reuse nothing settles" 0 (Answers.size t);
  check Alcotest.int "two left in flight" 2 (Answers.in_flight t);
  check Alcotest.int "exchanges opened" 3 (Answers.started t);
  check Alcotest.int "queries joined" 1 (Answers.coalesced t)

let test_scope_decides_what_settles () =
  let t = reuse_table ~ttl:(Sim.Time.s 1) () in
  let hints = "name" and now = Sim.Time.zero in
  let open_ port =
    first (Answers.join t ~hints ~flow:(flow_to port) ~joinable:true ())
  in
  (* A listener's answer turns its entry settled: it answers the next
     flow to the socket, from another client. *)
  let ex = open_ 80 in
  ignore (Answers.settle t ~now ~signer:"" ex (Some (socket, resp ())));
  check Alcotest.int "settled, not in flight" 0 (Answers.in_flight t);
  check Alcotest.int "one settled" 1 (Answers.size t);
  check Alcotest.bool "another client's flow reuses it" true
    (Answers.find t ~now ~hints ~flow:(flow_to ~src:"10.0.0.7" 80) <> None);
  (* A connected socket's answer holds for its own flow only: its entry
     leaves. *)
  let ex = open_ 81 in
  ignore (Answers.settle t ~now ~signer:"" ex (Some (Identxx.Signed.Flow, resp ())));
  check Alcotest.int "nothing left in flight" 0 (Answers.in_flight t);
  check Alcotest.int "still one settled" 1 (Answers.size t);
  check Alcotest.bool "the flow-scoped answer is not reused" true
    (Answers.find t ~now ~hints ~flow:(flow_to 81) = None);
  (* So does a failed exchange's. *)
  let ex = open_ 82 in
  check Alcotest.(list unit) "the failure settles its waiter" [ () ]
    (Answers.settle t ~now ~signer:"" ex None);
  check Alcotest.int "a failure leaves nothing" 0 (Answers.in_flight t)

let test_host_change_detaches () =
  let t = reuse_table ~ttl:(Sim.Time.s 1) () in
  let hints = "name" and now = Sim.Time.zero and flow = flow_to 80 in
  let join w = Answers.join t ~hints ~flow ~joinable:true w in
  let old = first (join "before") in
  Answers.drop_host t (ip "10.0.0.2");
  check Alcotest.int "dropped in flight" 0 (Answers.in_flight t);
  (* A flow after the change opens its own exchange: the answer on the
     wire predates the change. *)
  let fresh = first (join "after") in
  check
    Alcotest.(list string)
    "the detached exchange still settles its waiter" [ "before" ]
    (Answers.settle t ~now ~signer:"" old (Some (socket, resp ())));
  check Alcotest.int "its late answer stores nothing" 0 (Answers.size t);
  check Alcotest.int "the newer exchange stays in flight" 1
    (Answers.in_flight t);
  check Alcotest.int "and counts no invalidation" 0 (Answers.invalidations t);
  ignore (Answers.settle t ~now ~signer:"" fresh (Some (socket, resp ())));
  check Alcotest.int "the newer answer settles" 1 (Answers.size t);
  Answers.drop_host t (ip "10.0.0.2");
  check Alcotest.int "a change drops settled entries too" 0 (Answers.size t);
  check Alcotest.int "counted as an invalidation" 1 (Answers.invalidations t)

let test_expired_entry_reopens () =
  let t = reuse_table ~ttl:(Sim.Time.ms 10) () in
  let hints = "name" and flow = resp_flow in
  store t ~now:Sim.Time.zero ~hints ~flow (resp ());
  check Alcotest.bool "live entry answers" true
    (Answers.find t ~now:(Sim.Time.ms 9) ~hints ~flow <> None);
  check Alcotest.bool "expired entry misses" true
    (Answers.find t ~now:(Sim.Time.ms 10) ~hints ~flow = None);
  check Alcotest.bool "the next query opens a new exchange" true
    (match Answers.join t ~hints ~flow ~joinable:true () with
    | `First _ -> true
    | `Joined | `Alone -> false);
  check Alcotest.int "two exchanges opened" 2 (Answers.started t);
  check Alcotest.int "one in flight" 1 (Answers.in_flight t);
  check Alcotest.int "none settled" 0 (Answers.size t)

let test_invalidate_signer () =
  let t = reuse_table ~ttl:(Sim.Time.s 1) () in
  let hints = "name" and now = Sim.Time.zero in
  let signed_by signer =
    resp ~pairs:[ ("name", "httpd"); (Identxx.Signed.signer_key, signer) ] ()
  in
  store t ~signer:"key-a" ~now ~hints ~flow:(flow_to 80) (signed_by "key-a");
  store t ~signer:"key-b" ~now ~hints ~flow:(flow_to 81) (signed_by "key-b");
  store t ~now ~hints ~flow:(flow_to 82) (resp ());
  Answers.invalidate_signer t "key-a";
  check Alcotest.int "one invalidation" 1 (Answers.invalidations t);
  check Alcotest.bool "the revoked signer's answer is gone" true
    (Answers.find t ~now ~hints ~flow:(flow_to 80) = None);
  check Alcotest.bool "another signer's answer stays" true
    (Answers.find t ~now ~hints ~flow:(flow_to 81) <> None);
  check Alcotest.bool "an unsigned answer stays" true
    (Answers.find t ~now ~hints ~flow:(flow_to 82) <> None)

(* --- Breaker unit tests --- *)

let test_breaker_transitions () =
  let b = Fastpath.Breaker.create ~threshold:2 ~backoff:(Sim.Time.ms 100) () in
  let h = ip "10.0.0.9" in
  let t ms = Sim.Time.ms ms in
  check Alcotest.bool "closed: ask" true
    (Fastpath.Breaker.consult b ~now:(t 0) h = `Ask);
  Fastpath.Breaker.note_timeout b ~now:(t 5) h;
  check Alcotest.bool "below threshold: still ask" true
    (Fastpath.Breaker.consult b ~now:(t 5) h = `Ask);
  Fastpath.Breaker.note_timeout b ~now:(t 10) h;
  check Alcotest.int "tripped" 1 (Fastpath.Breaker.trips b);
  check Alcotest.bool "open: absent" true
    (Fastpath.Breaker.consult b ~now:(t 50) h = `Absent);
  check Alcotest.bool "window expired: probe" true
    (Fastpath.Breaker.consult b ~now:(t 111) h = `Probe);
  check Alcotest.bool "while probing, others get absent" true
    (Fastpath.Breaker.consult b ~now:(t 112) h = `Absent);
  (* Failed probe: straight back to open. *)
  Fastpath.Breaker.note_timeout b ~now:(t 120) h;
  check Alcotest.int "probe failure re-trips" 2 (Fastpath.Breaker.trips b);
  check Alcotest.bool "open again" true
    (Fastpath.Breaker.consult b ~now:(t 121) h = `Absent);
  (* A response closes the breaker and forgets the history. *)
  check Alcotest.bool "second window expired: probe" true
    (Fastpath.Breaker.consult b ~now:(t 225) h = `Probe);
  Fastpath.Breaker.note_response b h;
  check Alcotest.bool "closed after response" true
    (Fastpath.Breaker.consult b ~now:(t 230) h = `Ask);
  check Alcotest.int "history forgotten" 0 (Fastpath.Breaker.tracked b)

(* --- Decision_cache unit tests --- *)

let verdict_pass =
  { Pf.Eval.decision = Pf.Ast.Pass; matched = None; keep_state = false; log = false }

let flow_of i =
  Five_tuple.tcp ~src:(Ipv4.of_octets 10 0 0 i) ~dst:(ip "10.0.0.99")
    ~src_port:(50000 + i) ~dst_port:80

let test_decision_epoch_and_purge () =
  let c = Fastpath.Decision_cache.create ~capacity:8 () in
  Fastpath.Decision_cache.store c ~key:"k1" ~flow:(flow_of 1) verdict_pass;
  check Alcotest.bool "hit under the same policy" true
    (Fastpath.Decision_cache.find c ~key:"k1" <> None);
  (* A new revision's step clears everything at once. *)
  Fastpath.Decision_cache.clear c;
  check Alcotest.bool "miss after the flush" true
    (Fastpath.Decision_cache.find c ~key:"k1" = None);
  check Alcotest.int "cache emptied" 0 (Fastpath.Decision_cache.size c);
  Fastpath.Decision_cache.store c ~key:"a" ~flow:(flow_of 1) verdict_pass;
  Fastpath.Decision_cache.store c ~key:"b" ~flow:(flow_of 2) verdict_pass;
  check Alcotest.int "purge by ip" 1
    (Fastpath.Decision_cache.purge_ip c (Ipv4.of_octets 10 0 0 1));
  check Alcotest.bool "purged entry gone" true
    (Fastpath.Decision_cache.find c ~key:"a" = None);
  check Alcotest.bool "other entry survives" true
    (Fastpath.Decision_cache.find c ~key:"b" <> None)

(* An entry that leaves by expiry, invalidation or purge keeps its
   place in the FIFO order queue, and nothing pops it while the table
   stays under capacity. The queue must stay bounded anyway: after any
   number of leave-and-return cycles, a capacity-64 cache holding one
   live entry stays under a fixed size. *)
let queue_bound_words = 4_000

let check_bounded name words =
  if words > queue_bound_words then
    Alcotest.failf "%s: %d reachable words after 100k cycles" name words

let test_attr_order_bounded () =
  let c = reuse_table ~capacity:64 ~ttl:(Sim.Time.ms 1) () in
  let hints = Answers.hint_key [ "userID" ]
  and flow = resp_flow
  and r = resp () in
  for i = 0 to 99_999 do
    let now = Sim.Time.ms (2 * i) in
    store c ~now ~hints ~flow r;
    (* One tick past the TTL: the lookup drops the entry. *)
    ignore (Answers.find c ~now:(Sim.Time.ms ((2 * i) + 1)) ~hints ~flow)
  done;
  store c ~now:Sim.Time.zero ~hints ~flow r;
  check Alcotest.int "one live entry" 1 (Answers.size c);
  check Alcotest.int "nothing evicted" 0 (Answers.evictions c);
  check_bounded "attr cache" (Obj.reachable_words (Obj.repr c))

let test_decision_order_bounded () =
  let c = Fastpath.Decision_cache.create ~capacity:64 () in
  Fastpath.Decision_cache.store c ~key:"live" ~flow:(flow_of 2) verdict_pass;
  for _ = 1 to 100_000 do
    Fastpath.Decision_cache.store c ~key:"k" ~flow:(flow_of 1) verdict_pass;
    ignore (Fastpath.Decision_cache.purge_ip c (Ipv4.of_octets 10 0 0 1) : int)
  done;
  check Alcotest.int "one live entry" 1 (Fastpath.Decision_cache.size c);
  check Alcotest.int "nothing evicted" 0 (Fastpath.Decision_cache.evictions c);
  check_bounded "decision cache" (Obj.reachable_words (Obj.repr c))

let key_flow p =
  Five_tuple.tcp ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:p
    ~dst_port:80

let shape_of policy =
  Fastpath.decision_shape (Pf.Env.of_string policy |> Result.get_ok)

let test_decision_key_wildcards_src_port () =
  let src = Some (resp ()) and dst = None in
  let shape = shape_of "block all\npass all with eq(@src[userID], alice)" in
  let k p = Fastpath.decision_key shape ~flow:(key_flow p) ~src ~dst in
  check Alcotest.bool "ephemeral ports share a key" true (k 50000 = k 50001);
  let shape' = shape_of "block all\npass from any port 50000 to any" in
  let k' p = Fastpath.decision_key shape' ~flow:(key_flow p) ~src ~dst in
  check Alcotest.bool "matched ports distinguish keys" true
    (k' 50000 <> k' 50001);
  (* Only what the policy reads enters the key: not the header line,
     not an unread pair, not another flow's nonce. *)
  let other =
    Identxx.Response.make ~flow:(key_flow 50001)
      [
        [ Identxx.Key_value.pair "userID" "alice" ];
        [ Identxx.Key_value.pair "response-nonce" "n2" ];
      ]
  in
  check Alcotest.bool "unread pairs and header ignored" true
    (k 50000 = Fastpath.decision_key shape ~flow:(key_flow 50000)
                 ~src:(Some other) ~dst);
  (* Absent and empty-but-present responses must not collide. *)
  let base flow_src =
    Fastpath.decision_key shape ~flow:(key_flow 1) ~src:flow_src ~dst:None
  in
  let empty = Identxx.Response.make ~flow:(key_flow 1) [] in
  check Alcotest.bool "absent distinct from empty" true
    (base None <> base (Some empty))

(* A policy that checks ports only inside allowed(): the server's
   requirements pass source port 40000 alone, so a verdict cached for
   port 40000 must not be replayed for 40001. *)
let test_decision_key_allowed_src_port () =
  let env =
    Pf.Env.of_string "block all\npass all with allowed(@dst[requirements])"
    |> Result.get_ok
  in
  let shape = Fastpath.decision_shape env in
  let dst =
    Some
      (Identxx.Response.make ~flow:(key_flow 40000)
         [
           [
             Identxx.Key_value.pair "requirements"
               "pass proto tcp from any port 40000 to any";
           ];
         ])
  in
  let src = Some (resp ()) in
  let decide p =
    (eval_exn env (Pf.Eval.ctx ?src ?dst ()) (key_flow p)).decision
  in
  check Alcotest.bool "verdicts differ by source port" true
    (decide 40000 = Pf.Ast.Pass && decide 40001 = Pf.Ast.Block);
  check Alcotest.bool "so do the keys" true
    (Fastpath.decision_key shape ~flow:(key_flow 40000) ~src ~dst
    <> Fastpath.decision_key shape ~flow:(key_flow 40001) ~src ~dst)

(* --- The decision key is a pure memo of the policy verdict --- *)

(* Random small policies over keys a/b/c (read through eq, member and
   includes on @ and *@ accesses), [from … port] rules, and allowed()
   on response-carried rules r/q, which may nest. Answers are random
   multi-section responses over the same keys plus an unread z, or
   absent, or empty. The second input is the first one perturbed, so
   equal keys come up often. *)
module Memo_gen = struct
  open QCheck.Gen

  let ports = [ 40000; 40001 ]
  let values = [ "x"; "y"; "1"; "2"; "x,y"; "" ]
  let access =
    map3
      (fun star d k ->
        Printf.sprintf "%s@%s[%s]" (if star then "*" else "") d k)
      bool
      (oneofl [ "src"; "dst" ])
      (oneofl [ "a"; "b"; "c" ])

  let lit = oneofl [ "x"; "y"; "1"; "2" ]

  let cond ~rule_key =
    frequency
      [
        (3, map2 (Printf.sprintf "eq(%s, %s)") access lit);
        (2, map (Printf.sprintf "member(%s, \"{ x y }\")") access);
        (2, map2 (Printf.sprintf "includes(%s, %s)") access lit);
        ( 2,
          map
            (fun d -> Printf.sprintf "allowed(@%s[%s])" d rule_key)
            (oneofl [ "src"; "dst" ]) );
      ]

  let rule ~max_conds ~rule_key =
    let* action = oneofl [ "pass"; "block" ] in
    let* quick = bool in
    let* from_port = opt ~ratio:0.6 (oneofl ports) in
    let* conds = list_size (int_bound max_conds) (cond ~rule_key) in
    return
      (Printf.sprintf "%s%s proto tcp from any%s to any%s" action
         (if quick then " quick" else "")
         (match from_port with
         | Some p -> Printf.sprintf " port %d" p
         | None -> "")
         (String.concat "" (List.map (( ^ ) " with ") conds)))

  (* A policy calls allowed() on r and r's rules call it on q; q's
     allowed() names a key no answer carries, so nesting stops there. *)
  let policy =
    map (String.concat "\n")
      (list_size (int_range 1 3) (rule ~max_conds:2 ~rule_key:"r"))

  let rule_text ~rule_key =
    map (String.concat " ")
      (list_size (int_range 1 2) (rule ~max_conds:1 ~rule_key))

  let value key =
    match key with
    | "r" -> rule_text ~rule_key:"q"
    | "q" -> rule_text ~rule_key:"none"
    | _ -> oneofl values

  let keys = [ "a"; "b"; "c"; "r"; "q"; "z" ]
  let pair_of key = map (Identxx.Key_value.pair key) (value key)

  (* Answers carry the policy's rule key r more often than the rest. *)
  let pair = frequency [ (3, return "r"); (2, oneofl keys) ] >>= pair_of
  let any_pair = oneofl keys >>= pair_of

  let response =
    frequency
      [
        (1, return None);
        ( 5,
          map
            (fun sections ->
              Some (Identxx.Response.make ~flow:(key_flow 40000) sections))
            (list_size (int_bound 2) (list_size (int_bound 3) pair)) );
      ]

  let input =
    map3 (fun p src dst -> (key_flow p, src, dst)) (oneofl ports) response
      response

  let sections = function
    | None -> []
    | Some (r : Identxx.Response.t) -> Identxx.Response.sections r

  let with_sections ss = Some (Identxx.Response.make ~flow:(key_flow 40001) ss)

  (* One perturbation of an answer: a pair added first or last, changed
     or dropped, a section dropped, or the whole answer emptied or made
     absent. *)
  let perturb_answer r =
    let ss = sections r in
    frequency
      [
        (2, map (fun p -> with_sections (ss @ [ [ p ] ])) any_pair);
        (2, map (fun p -> with_sections ([ p ] :: ss)) any_pair);
        ( 3,
          let* p = any_pair in
          return
            (with_sections
               (List.map
                  (List.map (fun (q : Identxx.Key_value.pair) ->
                       if q.key = p.key then p else q))
                  ss)) );
        ( 2,
          let* k = oneofl keys in
          return
            (with_sections
               (List.map
                  (List.filter (fun (q : Identxx.Key_value.pair) -> q.key <> k))
                  ss)) );
        (1, return (with_sections (match ss with [] -> [] | _ :: ss -> ss)));
        (1, return (with_sections []));
        (1, return None);
      ]

  let perturb ((flow : Five_tuple.t), src, dst) =
    frequency
      [
        ( 4,
          let src_port = if flow.src_port = 40000 then 40001 else 40000 in
          return
            ( Five_tuple.make ~src:flow.src ~dst:flow.dst ~proto:flow.proto
                ~src_port ~dst_port:flow.dst_port,
              src,
              dst ) );
        (3, map (fun src -> (flow, src, dst)) (perturb_answer src));
        (3, map (fun dst -> (flow, src, dst)) (perturb_answer dst));
      ]

  let case =
    let* policy = policy in
    let* a = input in
    let* b = perturb a in
    return (policy, a, b)
end

let test_decision_key_is_memo =
  let print (policy, a, b) =
    let input ((flow : Five_tuple.t), src, dst) =
      let answer = function
        | None -> "absent"
        | Some r -> String.escaped (Identxx.Response.encode r)
      in
      Printf.sprintf "port %d, src %s, dst %s" flow.src_port (answer src)
        (answer dst)
    in
    String.concat "\n" [ policy; input a; input b ]
  in
  let verdict env (flow, src, dst) =
    match Pf.Eval.eval env (Pf.Eval.ctx ?src ?dst ()) flow with
    | Ok (v : Pf.Eval.verdict) ->
        Ok
          ( v.decision,
            Option.map (fun (r : Pf.Ast.rule) -> r.line) v.matched,
            v.keep_state,
            v.log )
    | Error e -> Error e
  in
  QCheck.Test.make ~count:10000 ~name:"equal keys imply equal verdicts"
    (QCheck.make ~print Memo_gen.case)
    (fun (policy, a, b) ->
      let env = Pf.Env.of_string policy |> Result.get_ok in
      let shape = Fastpath.decision_shape env in
      let key (flow, src, dst) = Fastpath.decision_key shape ~flow ~src ~dst in
      key a <> key b || verdict env a = verdict env b)

(* The decision key as the fast path once wrote it, decoding each
   answer into [Key_value.pair] lists with [Response.sections] when the
   policy calls allowed(): the oracle for the writer that copies each
   pair from the payload where it sits. *)
let list_key (shape : Fastpath.decision_shape) (flow : Five_tuple.t) ~src ~dst =
  let b = Buffer.create 64 in
  let lp s = Printf.bprintf b "%d:%s" (String.length s) s in
  Printf.bprintf b "%d>%d/%d:" (Ipv4.to_int flow.src) (Ipv4.to_int flow.dst)
    (Proto.to_int flow.proto);
  if shape.src_port then Printf.bprintf b "%d:" flow.src_port
  else Buffer.add_string b "*:";
  Printf.bprintf b "%d," flow.dst_port;
  let answer = function
    | None -> Buffer.add_char b '-'
    | Some r -> (
        Buffer.add_char b 'R';
        match shape.reads with
        | Some keys ->
            List.iter
              (fun k ->
                List.iter lp (Identxx.Response.all_values r k);
                Buffer.add_char b ';')
              keys
        | None ->
            List.iter
              (fun section ->
                Buffer.add_char b '|';
                List.iter
                  (fun (p : Identxx.Key_value.pair) ->
                    lp p.key;
                    lp p.value)
                  section)
              (Identxx.Response.sections r))
  in
  answer src;
  answer dst;
  Buffer.contents b

(* Memo_gen's policies and answers, plus answers whose values are any
   printable bytes (separators and digits included), so a value that
   looks like a length or a section mark is copied as it is. *)
let prop_decision_key_matches_list_writer =
  let open QCheck.Gen in
  let value =
    map
      (String.map (fun c -> if c = '\n' then ' ' else c))
      (string_size ~gen:printable (int_bound 12))
  in
  let wide_pair =
    map2 Identxx.Key_value.pair (oneofl [ "userID"; "name"; "a"; "r" ]) value
  in
  let wide =
    map
      (fun ss -> Some (Identxx.Response.make ~flow:(key_flow 40000) ss))
      (list_size (int_bound 3) (list_size (int_bound 4) wide_pair))
  in
  let answer = frequency [ (2, Memo_gen.response); (1, wide) ] in
  let gen =
    map3 (fun policy (a : Five_tuple.t * _ * _) (src, dst) ->
        let flow, _, _ = a in
        (policy, flow, src, dst))
      Memo_gen.policy Memo_gen.input (pair answer answer)
  in
  let print (policy, (flow : Five_tuple.t), src, dst) =
    let answer = function
      | None -> "absent"
      | Some r -> String.escaped (Identxx.Response.encode r)
    in
    Printf.sprintf "%s\nport %d, src %s, dst %s" policy flow.src_port
      (answer src) (answer dst)
  in
  QCheck.Test.make ~count:2000 ~name:"the key is the list writer's, byte for byte"
    (QCheck.make ~print gen)
    (fun (policy, flow, src, dst) ->
      let shape = shape_of policy in
      let got = Fastpath.decision_key shape ~flow ~src ~dst
      and want = list_key shape flow ~src ~dst in
      got = want
      || QCheck.Test.fail_reportf "key %S, list writer %S" got want)

(* Under allowed(), the key copies every pair of both answers from the
   payloads where they sit: beside the key string itself, a key costs
   15 words (its cursor and each walk's state) for 4 pairs an answer as
   for 60. While it decoded each answer into pair lists first, it cost
   201 and 1,657 words (13 a pair). *)
let test_decision_key_alloc_flat_in_pairs () =
  let shape = shape_of "block all\npass all with allowed(@dst[requirements])" in
  let answer n =
    Some
      (Identxx.Response.make ~flow:(key_flow 40000)
         [
           List.init n (fun i ->
               Identxx.Key_value.pair
                 (Printf.sprintf "k%d" i)
                 (Printf.sprintf "v%d" i));
           [ Identxx.Key_value.pair "userID" "alice" ];
         ])
  in
  let words n =
    let src = answer n and dst = answer n and flow = key_flow 40000 in
    let key () = Fastpath.decision_key shape ~flow ~src ~dst in
    let k = key () in
    let rounds = 100 in
    let before = Gc.minor_words () in
    for _ = 1 to rounds do
      ignore (Sys.opaque_identity (key ()))
    done;
    ((Gc.minor_words () -. before) /. float_of_int rounds)
    -. float_of_int ((String.length k / 8) + 2)
  in
  let few = words 4 and many = words 60 in
  check (Alcotest.float 0.) "flat in the pair count" few many;
  if few > 16. then Alcotest.failf "%.1f words beside the key" few

(* --- Asking less decides the same --- *)

(* Random policies whose rules differ by ports, so a flow's candidate
   lines are a strict subset of the rules, reading keys a, b and c of
   either end, some through allowed() on rules an answer carries under
   r, which read either end too. Answers spread their pairs over
   several sections, so a hint list decides which of them come back. *)
module Plan_gen = struct
  open QCheck.Gen

  let side = oneofl [ "src"; "dst" ]
  let value = oneofl [ "x"; "y" ]

  let read =
    map3
      (fun star d k -> Printf.sprintf "%s@%s[%s]" (if star then "*" else "") d k)
      bool side
      (oneofl [ "a"; "b"; "c" ])

  let cond ~nest =
    let eq = map2 (Printf.sprintf "eq(%s, %s)") read value in
    if nest then
      frequency
        [ (3, eq); (2, map (Printf.sprintf "allowed(@%s[r])") side) ]
    else eq

  let rule ~nest =
    let* action = oneofl [ "pass"; "block" ] in
    let* quick = bool in
    let* from_port = opt ~ratio:0.5 (oneofl Memo_gen.ports) in
    let* to_port = opt ~ratio:0.5 (oneofl [ 80; 81 ]) in
    let* conds = list_size (int_bound 2) (cond ~nest) in
    let port = function Some p -> Printf.sprintf " port %d" p | None -> "" in
    return
      (Printf.sprintf "%s%s proto tcp from any%s to any%s%s" action
         (if quick then " quick" else "")
         (port from_port) (port to_port)
         (String.concat "" (List.map (( ^ ) " with ") conds)))

  let pair =
    let* key = oneofl [ "a"; "b"; "c"; "r"; "z" ] in
    let+ v =
      if key = "r" then
        map (String.concat " ") (list_size (int_range 1 2) (rule ~nest:false))
      else value
    in
    Identxx.Key_value.pair key v

  let answer =
    frequency
      [
        (1, return None);
        ( 6,
          map
            (fun sections ->
              Some (Identxx.Response.make ~flow:(key_flow 40000) sections))
            (list_size (int_bound 3) (list_size (int_range 1 2) pair)) );
      ]

  let case =
    let* policy =
      map (String.concat "\n") (list_size (int_range 1 4) (rule ~nest:true))
    in
    let* src_port = oneofl Memo_gen.ports in
    let* dst_port = oneofl [ 80; 81 ] in
    let* src = answer in
    let+ dst = answer in
    ( policy,
      Five_tuple.tcp ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port
        ~dst_port,
      src,
      dst )
end

(* The controller asks only the ends a flow's candidate lines read, and
   daemons send only the sections holding a hinted key: the verdict on
   what comes back must be the verdict on both full answers. *)
let test_asking_less_decides_the_same =
  let print (policy, (flow : Five_tuple.t), src, dst) =
    let answer = function
      | None -> "absent"
      | Some r -> String.escaped (Identxx.Response.encode r)
    in
    Printf.sprintf "%s\nports %d -> %d, src %s, dst %s" policy flow.src_port
      flow.dst_port (answer src) (answer dst)
  in
  let verdict env flow src dst =
    match Pf.Eval.eval env (Pf.Eval.ctx ?src ?dst ()) flow with
    | Ok (v : Pf.Eval.verdict) ->
        Ok
          ( v.decision,
            Option.map (fun (r : Pf.Ast.rule) -> r.line) v.matched,
            v.keep_state,
            v.log )
    | Error e -> Error e
  in
  QCheck.Test.make ~count:20000
    ~name:"asked ends and hinted sections decide as full answers"
    (QCheck.make ~print Plan_gen.case)
    (fun (policy, flow, src, dst) ->
      let rev = Identxx_core.Policy_store.load [ ("00", policy) ] |> Result.get_ok in
      let env = Identxx_core.Policy_store.Revision.env rev |> Result.get_ok in
      let plan = Identxx_core.Query_plan.make ~default:Pf.Ast.Pass rev in
      let ends = Identxx_core.Query_plan.ends plan flow in
      let keys = Identxx_core.Query_plan.hints plan in
      let sent asked answer =
        if not asked then None
        else
          Option.map
            (fun (r : Identxx.Response.t) ->
              Identxx.Response.make
                ~flow:
                  (Five_tuple.make ~src:Ipv4.any ~dst:Ipv4.any ~proto:r.proto
                     ~src_port:r.src_port ~dst_port:r.dst_port)
                (List.filter (Identxx.Daemon.wanted ~keys)
                   (Identxx.Response.sections r)))
            answer
      in
      verdict env flow src dst
      = verdict env flow
          (sent ends.Identxx_core.Query_plan.src src)
          (sent ends.Identxx_core.Query_plan.dst dst))

(* --- Controller integration --- *)

let app_policy apps =
  Printf.sprintf
    "allowed = \"{ %s }\"\nblock all\npass all with member(@src[name], $allowed)"
    (String.concat " " apps)

(* [app_policy] plus a rule that reads the destination's answer, so the
   controller asks both ends; it never matches the servers here. *)
let both_ends_policy apps =
  app_policy apps ^ "\nblock all with eq(@dst[name], quarantined)"

let fp_on =
  {
    C.default_config with
    C.fastpath =
      {
        Fastpath.default_config with
        Fastpath.breaker_threshold = 2;
        breaker_backoff = Sim.Time.ms 100;
      };
  }

(* Start a flow from an existing process (no spawn, so no change event)
   and run the simulation to quiescence. *)
let connect_and_run (s : Deploy.simple) ~proc ?(dst_port = 80) () =
  let flow =
    Identxx.Host.connect s.client ~proc ~dst:(Identxx.Host.ip s.server)
      ~dst_port ()
  in
  let pkt = Identxx.Host.first_packet s.client ~flow in
  Net.send_from_host s.network ~name:"client" pkt;
  Sim.Engine.run s.engine;
  flow

let advance (s : Deploy.simple) ms =
  Sim.Engine.schedule s.engine ~delay:(Sim.Time.ms ms) (fun () -> ());
  Sim.Engine.run s.engine

(* Answers reach beyond their flow only as far as a signing daemon
   declares: sign both hosts, and give the server a listener on port 80,
   whose answers hold for every new flow to it. *)
let serve (s : Deploy.simple) =
  List.iter
    (fun host -> ignore (Deploy.sign_host s.controller host))
    [ s.client; s.server ];
  let www = Identxx.Host.run s.server ~user:"www" ~exe:"/usr/sbin/httpd" () in
  Identxx.Host.listen s.server ~proc:www ~port:80 ()

(* A policy that reads only the destination's answer: the controller
   asks the server alone, and the listener's answer holds for every new
   flow to its port. *)
let server_policy servers =
  Printf.sprintf
    "servers = \"{ %s }\"\nblock all\npass all with member(@dst[name], $servers)"
    (String.concat " " servers)

let test_warm_cache_skips_queries () =
  let s = Deploy.simple_network ~config:fp_on () in
  Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (server_policy [ "httpd" ]);
  serve s;
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  ignore (connect_and_run s ~proc ());
  let st1 = C.stats s.controller in
  check Alcotest.int "cold flow queries the server" 1 st1.C.queries_sent;
  check Alcotest.int "cold flow is not a fastpath decision" 0
    st1.C.fastpath_decisions;
  (* Same process, new connection: the listener's answer holds for every
     new flow to port 80 — no daemon sees a query. *)
  ignore (connect_and_run s ~proc ());
  let st2 = C.stats s.controller in
  check Alcotest.int "warm flow sends no queries" 1 st2.C.queries_sent;
  check Alcotest.int "one fastpath decision" 1 st2.C.fastpath_decisions;
  check Alcotest.int "one attribute hit" 1 st2.C.attr_cache_hits;
  check Alcotest.int "decision replayed from cache" 1 st2.C.decision_cache_hits;
  (* Another user's process: the answer is the listener's, whoever
     connects. *)
  let bob = Identxx.Host.run s.client ~user:"bob" ~exe:"/usr/bin/curl" () in
  ignore (connect_and_run s ~proc:bob ());
  let st3 = C.stats s.controller in
  check Alcotest.int "still no new query" 1 st3.C.queries_sent;
  check Alcotest.int "listener answer reused" 2 st3.C.attr_cache_hits;
  check Alcotest.int "client daemon never queried" 0
    (Identxx.Daemon.queries_answered (Identxx.Host.daemon s.client));
  check Alcotest.int "server daemon queried once" 1
    (Identxx.Daemon.queries_answered (Identxx.Host.daemon s.server));
  check Alcotest.int "every flow allowed" 3 st3.C.allowed

let test_wire_answers_share_decision () =
  (* No attribute reuse, signed answers: both flows' answers come off
     the wire with their own header ports, nonces and binding tags, but
     agree on everything the policy reads. *)
  let config =
    {
      fp_on with
      C.require_signed_responses = true;
      C.fastpath = { fp_on.C.fastpath with Fastpath.attr_ttl = Sim.Time.zero };
    }
  in
  let s = Deploy.simple_network ~config () in
  Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (both_ends_policy [ "firefox" ]);
  List.iter
    (fun host -> ignore (Deploy.sign_host s.controller host))
    [ s.client; s.server ];
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let f1 = connect_and_run s ~proc () in
  let f2 = connect_and_run s ~proc () in
  check Alcotest.bool "different source ports" true
    (f1.Five_tuple.src_port <> f2.Five_tuple.src_port);
  let st = C.stats s.controller in
  check Alcotest.int "both flows asked both daemons" 4 st.C.queries_sent;
  check Alcotest.int "both exchanges answered" 4 st.C.responses_received;
  check Alcotest.int "no attribute hits" 0 st.C.attr_cache_hits;
  check Alcotest.int "second verdict replayed" 1 st.C.decision_cache_hits;
  match Identxx_core.Audit.entries (C.audit s.controller) with
  | [ e2; e1 ] ->
      check Alcotest.bool "audited flows" true
        (Five_tuple.equal e1.flow f1 && Five_tuple.equal e2.flow f2);
      check Alcotest.bool "equal audited verdicts" true
        (e1.decision = Pf.Ast.Pass && e2.decision = Pf.Ast.Pass
        && Identxx_core.Audit.(rule_line e1 = rule_line e2))
  | es -> Alcotest.failf "%d audit entries" (List.length es)

let test_spawn_invalidates_attr_cache () =
  (* A daemon-side change event (here: a process spawn — the paper's
     login/new-application case) must drop the host's cached attributes
     and force a fresh exchange. *)
  let s = Deploy.simple_network ~config:fp_on () in
  Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (both_ends_policy [ "firefox" ]);
  serve s;
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  ignore (connect_and_run s ~proc ());
  (* Invalidation is per-host: a spawn on the client leaves the server's
     listener answer cached. *)
  let proc2 =
    Identxx.Host.run s.client ~user:"mallory" ~exe:"/usr/bin/worm" ()
  in
  ignore (connect_and_run s ~proc:proc2 ());
  let st = C.stats s.controller in
  check Alcotest.int "each flow asks its client" 3 st.C.queries_sent;
  check Alcotest.int "server answered from the cache" 1
    (Identxx.Daemon.queries_answered (Identxx.Host.daemon s.server));
  check Alcotest.int "worm still blocked" 1 st.C.blocked;
  ignore (Identxx.Host.run s.server ~user:"root" ~exe:"/usr/sbin/cron" ());
  check Alcotest.bool "cache invalidated on spawn" true
    ((C.stats s.controller).C.attr_cache_invalidations >= 1);
  ignore (connect_and_run s ~proc ());
  let st = C.stats s.controller in
  check Alcotest.int "client and server asked" 5 st.C.queries_sent;
  check Alcotest.int "server daemon saw the second query" 2
    (Identxx.Daemon.queries_answered (Identxx.Host.daemon s.server));
  check Alcotest.int "firefox passes twice" 2 st.C.allowed

let test_rebound_listener_asked_again () =
  (* A listener's answer holds for every new flow to its port, until the
     port changes hands: re-binding it within the attribute TTL must
     drop the cached answer. The new owner exists before the first flow,
     so the re-binding is the only change event. *)
  let s = Deploy.simple_network ~config:fp_on () in
  Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "block all\npass all with eq(@dst[name], httpd)";
  List.iter
    (fun host -> ignore (Deploy.sign_host s.controller host))
    [ s.client; s.server ];
  let httpd = Identxx.Host.run s.server ~user:"www" ~exe:"/usr/sbin/httpd" () in
  let other = Identxx.Host.run s.server ~user:"eve" ~exe:"/usr/bin/nc" () in
  Identxx.Host.listen s.server ~proc:httpd ~port:80 ();
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  ignore (connect_and_run s ~proc ());
  check Alcotest.int "httpd's flow passes" 1 (C.stats s.controller).C.allowed;
  Identxx.Process_table.close_listen
    (Identxx.Host.processes s.server)
    ~pid:httpd.Identxx.Process_table.pid ~proto:Proto.Tcp ~port:80;
  Identxx.Host.listen s.server ~proc:other ~port:80 ();
  ignore (connect_and_run s ~proc ());
  let st = C.stats s.controller in
  check Alcotest.int "the server is asked again" 2
    (Identxx.Daemon.queries_answered (Identxx.Host.daemon s.server));
  check Alcotest.int "the new owner's flow is blocked" 1 st.C.blocked;
  check Alcotest.int "still one pass" 1 st.C.allowed

let test_rebound_in_flight_not_cached () =
  (* The listener is re-bound while its answer is on the wire: the
     answer still decides its own flow, but it describes the old owner
     and must not be kept for the next flow to the port. *)
  let s = Deploy.simple_network ~config:fp_on () in
  Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (server_policy [ "httpd" ]);
  List.iter
    (fun host -> ignore (Deploy.sign_host s.controller host))
    [ s.client; s.server ];
  let httpd = Identxx.Host.run s.server ~user:"www" ~exe:"/usr/sbin/httpd" () in
  let other = Identxx.Host.run s.server ~user:"eve" ~exe:"/usr/bin/nc" () in
  Identxx.Host.listen s.server ~proc:httpd ~port:80 ();
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let in_flight = ref false in
  (* The server answers 120 us after the packet-in's first packet goes
     out; the controller reads the answer 10 us later. *)
  Sim.Engine.schedule s.engine ~delay:(Sim.Time.us 125) (fun () ->
      in_flight :=
        Identxx.Daemon.queries_answered (Identxx.Host.daemon s.server) = 1
        && (C.stats s.controller).C.responses_received = 0;
      Identxx.Process_table.close_listen
        (Identxx.Host.processes s.server)
        ~pid:httpd.Identxx.Process_table.pid ~proto:Proto.Tcp ~port:80;
      Identxx.Host.listen s.server ~proc:other ~port:80 ());
  ignore (connect_and_run s ~proc ());
  check Alcotest.bool "re-bound while the answer was in flight" true !in_flight;
  check Alcotest.int "the flow decides on its own answer" 1
    (C.stats s.controller).C.allowed;
  ignore (connect_and_run s ~proc ());
  let st = C.stats s.controller in
  check Alcotest.int "the server is asked again" 2
    (Identxx.Daemon.queries_answered (Identxx.Host.daemon s.server));
  check Alcotest.int "no attribute hit" 0 st.C.attr_cache_hits;
  check Alcotest.int "the new owner's flow is blocked" 1 st.C.blocked

let test_expires_survives_trimming () =
  (* The policy reads only [name], and the server's administrator pairs
     hold no [name]: without [expires] among the hints, the daemon would
     leave its globals home and the attribute cache would silently fall
     back to its 5 s TTL. The controller hints [expires], so the
     listener's answer lives 10 ms. *)
  let s = Deploy.simple_network ~config:fp_on () in
  Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    "block all\npass all with eq(@dst[name], httpd)";
  serve s;
  (match
     Identxx.Daemon.load_config
       (Identxx.Host.daemon s.server)
       ~name:"00-admin" "os-patch : 8831\nexpires : 0.01"
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  let asked () =
    Identxx.Daemon.queries_answered (Identxx.Host.daemon s.server)
  in
  ignore (connect_and_run s ~proc ());
  ignore (connect_and_run s ~proc ());
  check Alcotest.int "within 10 ms the listener's answer is reused" 1
    (asked ());
  advance s 20;
  ignore (connect_and_run s ~proc ());
  check Alcotest.int "past its own bound it is asked again" 2 (asked ());
  check Alcotest.int "every flow passes" 3 (C.stats s.controller).C.allowed

let test_epoch_bump_prevents_stale_decision () =
  let s = Deploy.simple_network ~config:fp_on () in
  Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (server_policy [ "httpd" ]);
  serve s;
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  ignore (connect_and_run s ~proc ());
  check Alcotest.int "allowed under the old policy" 1
    (C.stats s.controller).C.allowed;
  (* Replace the policy through the store alone: no controller flush, so
     only the controller's Revision step, which clears the decision cache
     when it installs the new plan, protects against replaying the cached
     verdict. *)
  Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (server_policy [ "nginx" ]);
  ignore (connect_and_run s ~proc ());
  let st = C.stats s.controller in
  check Alcotest.int "stale pass not replayed" 1 st.C.allowed;
  check Alcotest.int "re-evaluated and blocked" 1 st.C.blocked;
  (* The attribute cache legitimately survives the policy change: the
     re-evaluation still needs no fresh queries. *)
  check Alcotest.int "no new queries" 1 st.C.queries_sent;
  check Alcotest.int "second decision fastpathed" 1 st.C.fastpath_decisions

let test_revoke_principal_purges () =
  let s = Deploy.simple_network ~config:fp_on () in
  Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (server_policy [ "httpd" ]);
  serve s;
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  ignore (connect_and_run s ~proc ());
  ignore (connect_and_run s ~proc ());
  let st = C.stats s.controller in
  check Alcotest.int "warm before revocation" 1 st.C.fastpath_decisions;
  ignore (C.revoke_principal s.controller ~ip:(Identxx.Host.ip s.server));
  (* Everything the principal could have influenced is gone: its
     attributes, its memoized decisions, its connection state. The next
     flow re-queries the revoked host. *)
  ignore (connect_and_run s ~proc ());
  let st' = C.stats s.controller in
  check Alcotest.int "revoked host re-queried" 2 st'.C.queries_sent;
  check Alcotest.int "no new fastpath decision" 1 st'.C.fastpath_decisions;
  check Alcotest.int "decision not replayed" 1 st'.C.decision_cache_hits;
  check Alcotest.bool "attribute entries purged" true
    (st'.C.attr_cache_invalidations >= 1)

let test_breaker_trips_and_reprobes () =
  let s = Deploy.simple_network ~config:fp_on () in
  Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (app_policy [ "firefox" ]);
  Identxx.Daemon.set_behaviour
    (Identxx.Host.daemon s.client)
    Identxx.Daemon.Silent;
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  (* Two consecutive timeouts trip the breaker (threshold 2). *)
  ignore (connect_and_run s ~proc ());
  ignore (connect_and_run s ~proc ());
  let st = C.stats s.controller in
  check Alcotest.int "two queries burned timeouts" 2 st.C.queries_sent;
  check Alcotest.int "two timeouts" 2 st.C.query_timeouts;
  check Alcotest.int "breaker tripped" 1 st.C.breaker_trips;
  (* Open breaker: flows decide immediately, with no query and no
     timeout wait. *)
  let before = Sim.Engine.now s.engine in
  ignore (connect_and_run s ~proc ());
  let st = C.stats s.controller in
  check Alcotest.int "no query while open" 2 st.C.queries_sent;
  check Alcotest.int "decided via breaker" 1 st.C.breaker_fastpaths;
  check Alcotest.int "fastpath decision" 1 st.C.fastpath_decisions;
  let elapsed = Sim.Time.sub (Sim.Engine.now s.engine) before in
  check Alcotest.bool "decided without burning the query timeout" true
    (Sim.Time.compare elapsed C.default_config.C.query_timeout < 0);
  (* After the backoff window the next flow re-probes the (healed)
     host; its answer closes the breaker. *)
  Identxx.Daemon.set_behaviour
    (Identxx.Host.daemon s.client)
    Identxx.Daemon.Honest;
  advance s 150;
  ignore (connect_and_run s ~proc ());
  let st = C.stats s.controller in
  check Alcotest.int "probe query sent after backoff" 3 st.C.queries_sent;
  check Alcotest.int "probe answered" 1 st.C.responses_received;
  check Alcotest.int "flow allowed after heal" 1 st.C.allowed;
  check Alcotest.bool "breaker closed" true
    (Fastpath.Breaker.state
       (Fastpath.breaker (C.fastpath s.controller))
       (Identxx.Host.ip s.client)
    = Fastpath.Breaker.Closed)

let test_breaker_failed_probe_reopens () =
  let s = Deploy.simple_network ~config:fp_on () in
  Policy_store.add_exn (C.policy s.controller) ~name:"00-policy"
    (app_policy [ "firefox" ]);
  Identxx.Daemon.set_behaviour
    (Identxx.Host.daemon s.client)
    Identxx.Daemon.Silent;
  let proc = Identxx.Host.run s.client ~user:"alice" ~exe:"/usr/bin/firefox" () in
  ignore (connect_and_run s ~proc ());
  ignore (connect_and_run s ~proc ());
  check Alcotest.int "tripped" 1 (C.stats s.controller).C.breaker_trips;
  advance s 150;
  (* Still silent: the probe query times out and the breaker re-opens
     for another window. *)
  ignore (connect_and_run s ~proc ());
  let st = C.stats s.controller in
  check Alcotest.int "probe sent" 3 st.C.queries_sent;
  check Alcotest.int "probe failure re-trips" 2 st.C.breaker_trips;
  (* And the window is armed again: the next flow is immediate. *)
  ignore (connect_and_run s ~proc ());
  check Alcotest.int "open again after failed probe" 3
    (C.stats s.controller).C.queries_sent

let () =
  Alcotest.run "fastpath"
    [
      ( "attr cache",
        [
          Alcotest.test_case "ttl and key normalization" `Quick test_attr_ttl;
          Alcotest.test_case "response-carried expiry" `Quick
            test_attr_self_expiry;
          Alcotest.test_case "capacity and invalidation" `Quick
            test_attr_capacity_and_invalidation;
          Alcotest.test_case "order queue stays bounded" `Quick
            test_attr_order_bounded;
        ] );
      ( "answers",
        [
          Alcotest.test_case "open, join and settle in join order" `Quick
            test_open_join_settle;
          Alcotest.test_case "scope decides what settles" `Quick
            test_scope_decides_what_settles;
          Alcotest.test_case "a host change detaches an exchange" `Quick
            test_host_change_detaches;
          Alcotest.test_case "an expired entry reopens" `Quick
            test_expired_entry_reopens;
          Alcotest.test_case "signer invalidation" `Quick
            test_invalidate_signer;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "state transitions" `Quick test_breaker_transitions;
        ] );
      ( "decision cache",
        [
          Alcotest.test_case "epoch flush and purge" `Quick
            test_decision_epoch_and_purge;
          Alcotest.test_case "order queue stays bounded" `Quick
            test_decision_order_bounded;
          Alcotest.test_case "key canonicalization" `Quick
            test_decision_key_wildcards_src_port;
          Alcotest.test_case "allowed() reads the source port" `Quick
            test_decision_key_allowed_src_port;
          QCheck_alcotest.to_alcotest test_decision_key_is_memo;
          QCheck_alcotest.to_alcotest prop_decision_key_matches_list_writer;
          Alcotest.test_case "allowed() key allocation, flat in pairs" `Quick
            test_decision_key_alloc_flat_in_pairs;
          QCheck_alcotest.to_alcotest test_asking_less_decides_the_same;
        ] );
      ( "controller integration",
        [
          Alcotest.test_case "warm cache skips queries" `Quick
            test_warm_cache_skips_queries;
          Alcotest.test_case "wire answers share a decision" `Quick
            test_wire_answers_share_decision;
          Alcotest.test_case "re-bound listener is asked again" `Quick
            test_rebound_listener_asked_again;
          Alcotest.test_case "answer in flight across a re-bind" `Quick
            test_rebound_in_flight_not_cached;
          Alcotest.test_case "expires bounds a trimmed answer" `Quick
            test_expires_survives_trimming;
          Alcotest.test_case "spawn invalidates attributes" `Quick
            test_spawn_invalidates_attr_cache;
          Alcotest.test_case "epoch bump prevents stale decision" `Quick
            test_epoch_bump_prevents_stale_decision;
          Alcotest.test_case "revocation purges caches" `Quick
            test_revoke_principal_purges;
          Alcotest.test_case "breaker trips then re-probes" `Quick
            test_breaker_trips_and_reprobes;
          Alcotest.test_case "failed probe re-opens" `Quick
            test_breaker_failed_probe_reopens;
        ] );
    ]
