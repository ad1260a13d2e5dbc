(** Entries keyed by a 5-tuple, in intrusive chains: the one table
    shape of the switch's exact-match entries and the controller's
    pending flows (DESIGN.md §12).

    Each entry carries its own link to the next entry of its chain, so
    adding one allocates no bucket cell. The chains hang from a
    power-of-two array of cells, each entry from the cell its hash
    selects ({!Five_tuple.hash} of its flow, or {!Five_tuple.hash_ints}
    of the fields that pin its flow down), and the array doubles once
    the entries outnumber its cells twice over. Each chain is kept in
    the entries' table order, and a doubling splits each chain in
    order. A lookup walks a chain from {!chain} by the entries' own
    links, with no call back into the table; it finds its entry by
    comparing keys, and returns [vacant] for none, not an option;
    {!probe} is that lookup for entries that carry a flow. *)

type 'e entry = {
  vacant : 'e;  (** Ends every chain. Never added. *)
  hash : 'e -> int;
      (** The hash of the entry's key, never negative; it must not
          change while the entry is in a table. A doubling rehashes
          each entry with it; {!add} and {!remove} take the hash from
          their caller, who has just computed it, and must be given
          this value: under another, {!add} links the entry into a
          chain a lookup does not walk, and {!remove} leaves it held
          (the table does not check). *)
  before : 'e -> 'e -> bool;
      (** Table order: whether the first entry goes before the second
          in a chain. A new entry goes after every entry that comes
          before it, so under [fun _ _ -> false] it goes at the head of
          its chain. *)
  next : 'e -> 'e;
  set_next : 'e -> 'e -> unit;
}
(** How a table reads and links its entries: one value for each kind of
    entry, made once. *)

type 'e t = private {
  e : 'e entry;  (** How the table reads and links its entries. *)
  mutable cells : 'e array;
      (** Chain heads; the length is a power of two. Read them through
          {!chain}. *)
  mutable count : int;
      (** The entries held. A field, not a function, so a lookup tests
          it before hashing a packet for nothing. *)
}

val create : 'e entry -> int -> 'e t
(** An empty table of at least [n] cells, rounded up to a power of
    two. *)

val chain : 'e t -> int -> 'e
(** The head of the chain that entries of this hash hang in, [vacant]
    when it is empty. *)

val add : 'e t -> int -> 'e -> unit
(** [add t hash e] links [e] in, after every entry of its chain that
    comes [before] it; [hash] is [e]'s [hash]. Allocates nothing but,
    amortised, the array's doubling. *)

val remove : 'e t -> int -> 'e -> unit
(** [remove t hash e] unlinks [e] itself, [hash] being its [hash], and
    resets its link to [vacant]; a no-op when it is not in the table.
    O(length of its chain). *)

val probe :
  'e t ->
  ('e -> Five_tuple.t) ->
  src:Ipv4.t ->
  dst:Ipv4.t ->
  proto:Proto.t ->
  src_port:int ->
  dst_port:int ->
  'e
(** [probe t flow ~src ~dst ~proto ~src_port ~dst_port] is the first
    entry whose [flow] has these fields, [vacant] for none, in a table
    whose entries [hash] as {!Five_tuple.hash} of their [flow]. Each
    chained flow is compared where it sits, so a probe by an answer's
    addresses and echoed ports builds no key. Allocates nothing. *)

val iter : 'e t -> ('a -> 'b -> 'e -> unit) -> 'a -> 'b -> unit
(** [f a b e] for every entry [e], each chain in table order. [f] may
    {!remove} the entry it is given, and no other. Allocates
    nothing. *)
