type 'e entry = {
  vacant : 'e;
  hash : 'e -> int;
  before : 'e -> 'e -> bool;
  next : 'e -> 'e;
  set_next : 'e -> 'e -> unit;
}

(* The table's operations are closed functions taking their operands as
   arguments: a local closure would be allocated on every call. *)
type 'e t = {
  e : 'e entry;
  mutable cells : 'e array;
      (* Chain heads; the length is a power of two, and [e.vacant] ends
         every chain. *)
  mutable count : int;
}

let create e n =
  let rec pow2 c = if c >= n then c else pow2 (2 * c) in
  { e; cells = Array.make (pow2 1) e.vacant; count = 0 }

let cell t hash = hash land (Array.length t.cells - 1)
let chain t hash = t.cells.(cell t hash)

(* Append [x] after [tail] in cell [j] of [cells], and return it as the
   new tail. *)
let append e cells j tail x =
  if tail == e.vacant then cells.(j) <- x else e.set_next tail x;
  x

(* Hang the old chain of cell [i] from [x] on, in order, from cells [i]
   and [i + n] of [cells], after their tails [low] and [high]. *)
let rec split e cells mask i low high x =
  if x != e.vacant then begin
    let next = e.next x in
    e.set_next x e.vacant;
    let j = e.hash x land mask in
    if j = i then split e cells mask i (append e cells j low x) high next
    else split e cells mask i low (append e cells j high x) next
  end

(* Double the cells. Each chain splits in two, each half filled in the
   old chain's order, so every chain stays in table order. *)
let grow t =
  let n = Array.length t.cells in
  let cells = Array.make (2 * n) t.e.vacant in
  for i = 0 to n - 1 do
    split t.e cells ((2 * n) - 1) i t.e.vacant t.e.vacant t.cells.(i)
  done;
  t.cells <- cells

let rec insert_after e prev x =
  let next = e.next prev in
  if next != e.vacant && e.before next x then insert_after e next x
  else begin
    e.set_next x next;
    e.set_next prev x
  end

let add t hash x =
  let e = t.e in
  let i = cell t hash in
  let head = t.cells.(i) in
  if head != e.vacant && e.before head x then insert_after e head x
  else begin
    e.set_next x head;
    t.cells.(i) <- x
  end;
  t.count <- t.count + 1;
  if t.count > 2 * Array.length t.cells then grow t

(* Unlink [x] from the chain after [prev]; whether it was there. *)
let rec unlink_after e prev x =
  let s = e.next prev in
  s != e.vacant
  && (if s == x then begin
        e.set_next prev (e.next x);
        true
      end
      else unlink_after e s x)

let remove t hash x =
  let e = t.e in
  if x != e.vacant then begin
    let i = cell t hash in
    let head = t.cells.(i) in
    let found =
      if head == x then begin
        t.cells.(i) <- e.next x;
        true
      end
      else head != e.vacant && unlink_after e head x
    in
    if found then begin
      e.set_next x e.vacant;
      t.count <- t.count - 1
    end
  end

(* The first entry from [x] on whose flow has these fields, the
   addresses and protocol as ints. *)
let rec scan e flow x ~src ~dst ~proto ~src_port ~dst_port =
  if x == e.vacant then x
  else
    let f : Five_tuple.t = flow x in
    if
      f.src_port = src_port && f.dst_port = dst_port
      && Ipv4.to_int f.src = src && Ipv4.to_int f.dst = dst
      && Proto.to_int f.proto = proto
    then x
    else scan e flow (e.next x) ~src ~dst ~proto ~src_port ~dst_port

let probe t flow ~src ~dst ~proto ~src_port ~dst_port =
  let src = Ipv4.to_int src and dst = Ipv4.to_int dst and proto = Proto.to_int proto in
  scan t.e flow
    (chain t (Five_tuple.hash_ints ~src ~dst ~proto ~src_port ~dst_port))
    ~src ~dst ~proto ~src_port ~dst_port

(* Each entry's link is read before [f] sees it, so [f] may unlink
   it. *)
let rec iter_chain e f a b x =
  if x != e.vacant then begin
    let next = e.next x in
    f a b x;
    iter_chain e f a b next
  end

let iter t f a b =
  for i = 0 to Array.length t.cells - 1 do
    iter_chain t.e f a b t.cells.(i)
  done
