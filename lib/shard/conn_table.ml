(* Per-host daemon connections, multiplexed: one in-flight ident++
   exchange per (host, query shape, queried socket), with every
   interested flow parked on a waiter list. Generic in the waiter type
   so the controller can park whatever per-flow handle it wants. *)

type key = { host : Netcore.Ipv4.t; shape : string; socket : int }

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    Netcore.Ipv4.equal a.host b.host
    && a.socket = b.socket
    && String.equal a.shape b.shape

  let hash k = Hashtbl.hash (Netcore.Ipv4.hash k.host, k.shape, k.socket)
end)

type 'w exchange = {
  key : key;
  mutable waiters : 'w list;  (* reverse join order *)
  mutable waiter_count : int;
}

type 'w t = {
  tbl : 'w exchange Key_tbl.t;
  mutable started : int;
  mutable coalesced : int;
}

let create () = { tbl = Key_tbl.create 64; started = 0; coalesced = 0 }

let join t ~host ~shape ~socket w =
  let key = { host; shape; socket } in
  match Key_tbl.find_opt t.tbl key with
  | Some ex ->
      ex.waiters <- w :: ex.waiters;
      ex.waiter_count <- ex.waiter_count + 1;
      t.coalesced <- t.coalesced + 1;
      `Coalesced ex.waiter_count
  | None ->
      let ex = { key; waiters = [ w ]; waiter_count = 1 } in
      t.started <- t.started + 1;
      Key_tbl.replace t.tbl key ex;
      `First ex

let settle t ex =
  (match Key_tbl.find_opt t.tbl ex.key with
  | Some cur when cur == ex -> Key_tbl.remove t.tbl ex.key
  | Some _ | None -> ());
  let ws = List.rev ex.waiters in
  ex.waiters <- [];
  ws

let close_host t host =
  let closed =
    Key_tbl.fold
      (fun k _ acc -> if Netcore.Ipv4.equal k.host host then k :: acc else acc)
      t.tbl []
  in
  List.iter (Key_tbl.remove t.tbl) closed

let in_flight t = Key_tbl.length t.tbl
let waiters t = Key_tbl.fold (fun _ ex acc -> acc + ex.waiter_count) t.tbl 0
let started t = t.started
let coalesced t = t.coalesced
