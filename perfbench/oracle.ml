(* The verdict oracle, run untimed after a repetition. Each timed
   arrival's verdict is re-derived with Decision.allows over the policy
   revision in force at its due time, from what each end's daemon
   answers about that flow (the source process re-bound to the
   connection, which the run has closed since). The oracle never aborts:
   a flow whose observed outcome no acceptable verdict explains is a
   failed arrival. *)

open Netcore
module C = Identxx_core.Controller
module PS = Identxx_core.Policy_store
module D = Identxx_core.Decision
module W = Workloads

type expectation = {
  may_deliver : bool;  (** Some acceptable verdict passes the flow. *)
  may_drop : bool;  (** Some acceptable verdict, or a link change, stops it. *)
  link_excused : bool;  (** Only a link change can stop it. *)
}

(* A flow may follow either side of a change that was in flight around
   its due time: its decision can land up to a query timeout plus a few
   control round trips after it is due, and a change reaches the switches
   one control latency after it is made. *)
let before_ns = Sim.Time.to_ns (Sim.Time.ms 1)
let after_ns = Sim.Time.to_ns (Sim.Time.ms 20)

let decision ~controller files =
  let policy = PS.create () in
  List.iter (fun (name, text) -> PS.add_exn policy ~name text) files;
  D.create ~default:(C.config controller).C.default ~keystore:(C.keystore controller)
    ~policy ()

(* Every policy revision the schedule applies, with the simulated time
   (ns) it takes effect. *)
let revisions (w : W.t) ~controller =
  Array.of_list
    ((0, decision ~controller w.W.policy)
    :: List.filter_map
         (fun (at, change) ->
           match change with
           | W.Edit text ->
               Some
                 ( Sim.Time.to_ns at,
                   decision ~controller (w.W.policy @ [ (W.edits_file, text) ]) )
           | W.Link_down _ | W.Link_up _ -> None)
         w.W.changes)

(* What the two daemons say about arrival [a]'s flow. *)
let input (w : W.t) (site : W.site) a (flow : Five_tuple.t) =
  let ar = w.W.arrivals.(a) in
  let src = site.W.hosts.(ar.W.src) and dst = site.W.hosts.(ar.W.dst) in
  let ask host ~peer =
    Option.map fst
      (Identxx.Daemon.answer (Identxx.Host.daemon host) ~peer
         ~proto:flow.Five_tuple.proto ~src_port:flow.Five_tuple.src_port
         ~dst_port:flow.Five_tuple.dst_port ~keys:[])
  in
  let table = Identxx.Host.processes src in
  let pid = site.W.procs.(ar.W.src).(ar.W.proc).Identxx.Process_table.pid in
  Identxx.Process_table.connect table ~pid ~flow;
  let src_response = ask src ~peer:flow.Five_tuple.dst in
  Identxx.Process_table.disconnect table ~flow;
  { D.flow; src_response; dst_response = ask dst ~peer:flow.Five_tuple.src }

(* Expectations for every arrival (warm-up arrivals accept anything),
   plus up to [pf_sample] (decision in force, input) pairs for the pf
   replay. *)
let pf_sample = 512

let expect (w : W.t) (site : W.site) ~flows =
  let revs = revisions w ~controller:site.W.controller in
  let topology_changes =
    List.filter_map
      (fun (at, change) ->
        match change with
        | W.Edit _ -> None
        | W.Link_down _ | W.Link_up _ -> Some (Sim.Time.to_ns at))
      w.W.changes
  in
  let inputs = ref [] and sampled = ref 0 in
  let expectation a (ar : W.arrival) =
    if not (W.is_timed w ar) then { may_deliver = true; may_drop = true; link_excused = false }
    else begin
      let due = Sim.Time.to_ns ar.W.due in
      let lo = due - before_ns and hi = due + after_ns in
      let inp = input w site a flows.(a) in
      let verdicts = ref [] in
      Array.iteri
        (fun i (from, d) ->
          let until = if i + 1 < Array.length revs then fst revs.(i + 1) else max_int in
          if from <= hi && until > lo then verdicts := D.allows d inp :: !verdicts;
          if from <= due && until > due && !sampled < pf_sample then begin
            inputs := (d, inp) :: !inputs;
            incr sampled
          end)
        revs;
      let link_change = List.exists (fun t -> t >= lo && t <= hi) topology_changes in
      let verdict_drops = List.mem false !verdicts in
      {
        may_deliver = List.mem true !verdicts;
        may_drop = verdict_drops || link_change;
        link_excused = link_change && not verdict_drops;
      }
    end
  in
  let expectations = Array.mapi expectation w.W.arrivals in
  (expectations, Array.of_list (List.rev !inputs))

let ok e ~delivered = if delivered then e.may_deliver else e.may_drop
