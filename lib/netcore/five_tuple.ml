type t = {
  src : Ipv4.t;
  dst : Ipv4.t;
  proto : Proto.t;
  src_port : int;
  dst_port : int;
}

let check_port p =
  if p < 0 || p > 0xffff then invalid_arg "Five_tuple: port out of range"

(* The protocols an IP header carries, each number in one form only:
   [Other] holds a number in [0, 255] that no named protocol has. *)
let check_proto : Proto.t -> unit = function
  | Icmp | Tcp | Udp -> ()
  | Other n ->
      if n < 0 || n > 0xff || n = 1 || n = 6 || n = 17 then
        invalid_arg "Five_tuple: protocol out of range"

let make ~src ~dst ~proto ~src_port ~dst_port =
  check_port src_port;
  check_port dst_port;
  check_proto proto;
  { src; dst; proto; src_port; dst_port }

let tcp ~src ~dst ~src_port ~dst_port =
  make ~src ~dst ~proto:Proto.Tcp ~src_port ~dst_port

let udp ~src ~dst ~src_port ~dst_port =
  make ~src ~dst ~proto:Proto.Udp ~src_port ~dst_port

let reverse t =
  { t with src = t.dst; dst = t.src; src_port = t.dst_port; dst_port = t.src_port }

(* An end is its address above its port, 48 bits; the destination's
   word has the protocol number above that. *)
let[@inline] end_word ip port = (Ipv4.to_int ip lsl 16) lor port
let[@inline] pack_src t = end_word t.src t.src_port

let[@inline] pack_dst t =
  (Proto.to_int t.proto lsl 48) lor end_word t.dst t.dst_port

let unpack src dst =
  {
    src = Ipv4.of_int ((src lsr 16) land 0xffff_ffff);
    src_port = src land 0xffff;
    dst = Ipv4.of_int ((dst lsr 16) land 0xffff_ffff);
    dst_port = dst land 0xffff;
    proto = Proto.of_int ((dst lsr 48) land 0xff);
  }

let to_string t =
  Printf.sprintf "%s %s:%d -> %s:%d" (Proto.to_string t.proto)
    (Ipv4.to_string t.src) t.src_port (Ipv4.to_string t.dst) t.dst_port

let compare a b =
  let c = Ipv4.compare a.src b.src in
  if c <> 0 then c
  else
    let c = Ipv4.compare a.dst b.dst in
    if c <> 0 then c
    else
      let c = Proto.compare a.proto b.proto in
      if c <> 0 then c
      else
        let c = Int.compare a.src_port b.src_port in
        if c <> 0 then c else Int.compare a.dst_port b.dst_port

let equal a b = compare a b = 0

(* [Hashtbl.hash (src, dst, proto, src_port, dst_port)] over the fields'
   ints, computed without building the tuple: the runtime's MurmurHash3
   steps (runtime/hash.c) replayed in 32-bit arithmetic on native ints.
   The value is the runtime's, so bucket and shard choices are too. *)
let m32 = 0xffff_ffff
let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land m32

let[@inline] mix h d =
  let d = rotl32 ((d * 0xcc9e2d51) land m32) 15 * 0x1b873593 land m32 in
  let h = rotl32 (h lxor d) 13 in
  ((h * 5) + 0xe6546b64) land m32

(* An immediate int as [caml_hash_mix_intnat] folds it: the tagged word
   [2n + 1] with its high half and its sign xored into its low half. *)
let[@inline] mix_int h n =
  mix h (((n lsl 1) lor 1) lxor (n asr 31) lxor (n asr 62) land m32)

let[@inline] final_mix h =
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land m32 in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land m32 in
  h lxor (h lsr 16)

let hash_ints ~src ~dst ~proto ~src_port ~dst_port =
  (* The tuple's header (five fields, tag 0), then each field. *)
  let h = mix 0 (5 lsl 10) in
  let h = mix_int h src in
  let h = mix_int h dst in
  let h = mix_int h proto in
  let h = mix_int h src_port in
  let h = mix_int h dst_port in
  final_mix h land 0x3fff_ffff

let hash t =
  hash_ints ~src:(Ipv4.to_int t.src) ~dst:(Ipv4.to_int t.dst)
    ~proto:(Proto.to_int t.proto) ~src_port:t.src_port ~dst_port:t.dst_port

let pp ppf t = Format.pp_print_string ppf (to_string t)
