open Netcore

module Flow_tbl = Hashtbl.Make (struct
  type t = Five_tuple.t

  let equal = Five_tuple.equal
  let hash = Five_tuple.hash
end)

type t = {
  idle_timeout : Sim.Time.t;
  entries : Sim.Time.t ref Flow_tbl.t;
  mutable sweep_at : int; (* the size at which [note] next expires *)
}

let min_sweep = 128

let create ?(idle_timeout = Sim.Time.s 60) () =
  { idle_timeout; entries = Flow_tbl.create 64; sweep_at = min_sweep }

let fresh t ~now last =
  Sim.Time.compare now (Sim.Time.add !last t.idle_timeout) <= 0

let permits t ~now flow =
  let check f =
    match Flow_tbl.find_opt t.entries f with
    | Some last when fresh t ~now last ->
        last := now;
        true
    | Some _ | None -> false
  in
  check flow || check (Five_tuple.reverse flow)

let revoke t ~ip =
  let doomed =
    Flow_tbl.fold
      (fun flow _ acc ->
        if
          Ipv4.equal flow.Five_tuple.src ip || Ipv4.equal flow.Five_tuple.dst ip
        then flow :: acc
        else acc)
      t.entries []
  in
  List.iter (Flow_tbl.remove t.entries) doomed;
  List.length doomed

let size t = Flow_tbl.length t.entries

let expire t ~now =
  let stale =
    Flow_tbl.fold
      (fun flow last acc -> if fresh t ~now last then acc else flow :: acc)
      t.entries []
  in
  List.iter (Flow_tbl.remove t.entries) stale;
  List.length stale

(* Sweep once the table has doubled since the last sweep: amortised O(1)
   per note, and the table stays within twice the flows still inside
   the idle timeout. *)
let note t ~now flow =
  Flow_tbl.replace t.entries flow (ref now);
  if Flow_tbl.length t.entries >= t.sweep_at then begin
    ignore (expire t ~now);
    t.sweep_at <- max min_sweep (2 * Flow_tbl.length t.entries)
  end

let clear t = Flow_tbl.reset t.entries
