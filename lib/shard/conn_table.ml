(* Per-host daemon connections, multiplexed: one in-flight ident++
   exchange per (host, query shape), with every interested flow parked
   on a waiter list. Generic in the waiter type so the controller can
   park whatever per-flow handle it wants. *)

type key = { host : Netcore.Ipv4.t; shape : string }

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal a b = Netcore.Ipv4.equal a.host b.host && String.equal a.shape b.shape
  let hash k = Hashtbl.hash (Netcore.Ipv4.hash k.host, k.shape)
end)

type 'w exchange = {
  mutable waiters : 'w list;  (* reverse join order *)
  mutable waiter_count : int;
}

type 'w t = {
  tbl : 'w exchange Key_tbl.t;
  mutable started : int;
  mutable coalesced : int;
}

let create () = { tbl = Key_tbl.create 64; started = 0; coalesced = 0 }

let join t ~host ~shape w =
  let key = { host; shape } in
  match Key_tbl.find_opt t.tbl key with
  | Some ex ->
      ex.waiters <- w :: ex.waiters;
      ex.waiter_count <- ex.waiter_count + 1;
      t.coalesced <- t.coalesced + 1;
      `Coalesced ex.waiter_count
  | None ->
      let ex = { waiters = [ w ]; waiter_count = 1 } in
      t.started <- t.started + 1;
      Key_tbl.replace t.tbl key ex;
      `First

let settle t ~host ~shape =
  let key = { host; shape } in
  match Key_tbl.find_opt t.tbl key with
  | None -> []
  | Some ex ->
      Key_tbl.remove t.tbl key;
      List.rev ex.waiters

let in_flight t = Key_tbl.length t.tbl
let waiters t = Key_tbl.fold (fun _ ex acc -> acc + ex.waiter_count) t.tbl 0
let started t = t.started
let coalesced t = t.coalesced
