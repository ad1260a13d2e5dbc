module Make (H : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (H)

  type key = H.t
  type 'a table = 'a Tbl.t

  type 'a t = {
    capacity : int;
    table : 'a table;
    order : key Queue.t;
    mutable evictions : int;
  }

  let create ~capacity n =
    if capacity < 1 then invalid_arg "Fifo_map.create: capacity must be >= 1";
    { capacity; table = Tbl.create n; order = Queue.create (); evictions = 0 }

  let find t key = Tbl.find t.table key
  let remove t key = Tbl.remove t.table key
  let length t = Tbl.length t.table

  let clear t =
    Tbl.reset t.table;
    Queue.clear t.order

  (* Every held key is queued, so a full map has a key to pop. *)
  let evict_one t =
    let key = Queue.take t.order in
    if Tbl.mem t.table key then begin
      Tbl.remove t.table key;
      t.evictions <- t.evictions + 1
    end

  let compact t =
    if Queue.length t.order > 2 * t.capacity then begin
      let kept = Tbl.create t.capacity in
      for _ = 1 to Queue.length t.order do
        let key = Queue.take t.order in
        if Tbl.mem t.table key && not (Tbl.mem kept key) then begin
          Tbl.add kept key ();
          Queue.add key t.order
        end
      done
    end

  let add t key v =
    if not (Tbl.mem t.table key) then begin
      while Tbl.length t.table >= t.capacity do
        evict_one t
      done;
      Queue.add key t.order
    end;
    Tbl.replace t.table key v;
    compact t

  (* The keys go after the walk: a table must not change under its own
     fold. *)
  let filter_inplace keep t =
    let doomed = Tbl.fold (fun k v acc -> if keep k v then acc else k :: acc) t.table [] in
    List.iter (Tbl.remove t.table) doomed
end
