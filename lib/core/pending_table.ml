open Netcore

module type ENTRY = sig
  type t

  val vacant : t
  val flow : t -> Five_tuple.t
  val next : t -> t
  val set_next : t -> t -> unit
end

module type S = sig
  type entry
  type t

  val create : int -> t
  val length : t -> int
  val add : t -> entry -> unit
  val remove : t -> entry -> unit
  val find : t -> Five_tuple.t -> entry

  val probe :
    t ->
    src:Ipv4.t ->
    dst:Ipv4.t ->
    proto:Proto.t ->
    src_port:int ->
    dst_port:int ->
    entry
end

module Make (E : ENTRY) = struct
  type entry = E.t

  type t = {
    mutable cells : E.t array;
        (* Chain heads; the length is a power of two, and [E.vacant]
           ends every chain. *)
    mutable count : int;
  }

  let create n =
    let rec pow2 c = if c >= n then c else pow2 (2 * c) in
    { cells = Array.make (pow2 1) E.vacant; count = 0 }

  let length t = t.count
  let cell t hash = hash land (Array.length t.cells - 1)

  (* Push [e] onto the head of its chain. *)
  let push t e =
    let i = cell t (Five_tuple.hash (E.flow e)) in
    E.set_next e t.cells.(i);
    t.cells.(i) <- e

  let rec rehash t e =
    if e != E.vacant then begin
      let next = E.next e in
      push t e;
      rehash t next
    end

  (* Double the cells and hang every entry from its new cell. Pending
     flows have distinct keys, so the order within a chain carries
     nothing. *)
  let grow t =
    let old = t.cells in
    t.cells <- Array.make (2 * Array.length old) E.vacant;
    for i = 0 to Array.length old - 1 do
      rehash t old.(i)
    done

  let add t e =
    push t e;
    t.count <- t.count + 1;
    if t.count > 2 * Array.length t.cells then grow t

  (* Unlink [e] from the chain after [prev]; whether it was there. *)
  let rec unlink_after prev e =
    let s = E.next prev in
    s != E.vacant
    && (if s == e then begin
          E.set_next prev (E.next e);
          true
        end
        else unlink_after s e)

  let remove t e =
    if e != E.vacant then begin
      let i = cell t (Five_tuple.hash (E.flow e)) in
      let head = t.cells.(i) in
      let found =
        if head == e then begin
          t.cells.(i) <- E.next e;
          true
        end
        else head != E.vacant && unlink_after head e
      in
      if found then begin
        E.set_next e E.vacant;
        t.count <- t.count - 1
      end
    end

  (* The first entry of the chain from [e] whose flow has these fields;
     [E.vacant] when none does. *)
  let rec scan e ~src ~dst ~proto ~src_port ~dst_port =
    if e == E.vacant then e
    else
      let f = E.flow e in
      if
        f.Five_tuple.src_port = src_port
        && f.Five_tuple.dst_port = dst_port
        && Ipv4.to_int f.Five_tuple.src = src
        && Ipv4.to_int f.Five_tuple.dst = dst
        && Proto.to_int f.Five_tuple.proto = proto
      then e
      else scan (E.next e) ~src ~dst ~proto ~src_port ~dst_port

  let probe t ~src ~dst ~proto ~src_port ~dst_port =
    let src = Ipv4.to_int src
    and dst = Ipv4.to_int dst
    and proto = Proto.to_int proto in
    scan
      t.cells.(cell t (Five_tuple.hash_ints ~src ~dst ~proto ~src_port ~dst_port))
      ~src ~dst ~proto ~src_port ~dst_port

  let find t (flow : Five_tuple.t) =
    probe t ~src:flow.src ~dst:flow.dst ~proto:flow.proto
      ~src_port:flow.src_port ~dst_port:flow.dst_port
end
