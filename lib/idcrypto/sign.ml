type keypair = { owner : string; public : string; secret : string }

let generate ?(seed = "identxx-default-seed") owner =
  let secret = Sha256.hexdigest (Printf.sprintf "sk|%s|%s" seed owner) in
  let public = "pk" ^ String.sub (Sha256.hexdigest ("pk|" ^ secret)) 0 40 in
  { owner; public; secret }

let canonical data =
  let buf = Buffer.create 64 in
  List.iter
    (fun d ->
      Buffer.add_string buf (string_of_int (String.length d));
      Buffer.add_char buf ':';
      Buffer.add_string buf d)
    data;
  Buffer.contents buf

(* [buf] holds one element's "<decimal length>:" prefix while the
   message is fed, written right to left (19 digits cover any string
   length), and then the HMAC. A prepared key is its own stream,
   restarted for each message. *)
type stream = { hmac : Hmac.ctx; key : Hmac.key; buf : Bytes.t }
type key = stream

let prepare secret =
  let key = Hmac.prepare secret in
  { hmac = Hmac.start key; key; buf = Bytes.create Sha256.digest_size }

let keyed st =
  Hmac.restart st.hmac st.key;
  st

let stream ~secret = prepare secret

(* Write [n]'s decimal digits into [b] ending at [i]; the first digit's
   index. *)
let rec put_digits b n i =
  Bytes.set b i (Char.unsafe_chr (Char.code '0' + (n mod 10)));
  if n >= 10 then put_digits b (n / 10) (i - 1) else i

let begin_element st n =
  let b = st.buf in
  let last = Bytes.length b - 1 in
  Bytes.set b last ':';
  let first = put_digits b n (last - 1) in
  Hmac.feed_bytes st.hmac b first (last + 1 - first)

let feed st s = Hmac.feed st.hmac s

let add st d =
  begin_element st (String.length d);
  feed st d

let add_sub st s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Sign.add_sub: out of bounds";
  begin_element st len;
  Hmac.feed_bytes st.hmac (Bytes.unsafe_of_string s) pos len

let rec digit_count n = if n < 10 then 1 else 1 + digit_count (n / 10)
let int_length n = if n < 0 then String.length (string_of_int n) else digit_count n

let feed_int st n =
  if n < 0 then feed st (string_of_int n)
  else
    let b = st.buf in
    let last = Bytes.length b - 1 in
    let first = put_digits b n last in
    Hmac.feed_bytes st.hmac b first (last + 1 - first)

(* The first [n] bytes of the tag over what was fed. *)
let hex st n =
  Hmac.finalize_into st.hmac st.buf;
  Hex.encode_prefix (Bytes.unsafe_to_string st.buf) n

let finish st = hex st Sha256.digest_size

let finish_into st b pos =
  Hmac.finalize_into st.hmac st.buf;
  Hex.write_prefix (Bytes.unsafe_to_string st.buf) Sha256.digest_size b pos
let short_bytes = 16
let finish_short st = hex st short_bytes

let sign ~secret data =
  let st = stream ~secret in
  List.iter (add st) data;
  finish st

(* A trusted principal: its secret, prepared once, and the hosts it may
   answer for ([None]: any host). [verifier] is [Some key], built once. *)
type principal = {
  key : key;
  hosts : string list option;
  verifier : stream option;
}

(* A section whose tag once verified: the tag, its signer and the
   canonical bytes it covers. *)
type section = { tag : string; signer : string; bytes : string }

(* Canonical bytes, held once however many signers' cached sections
   carry them: hosts configured alike sign identical sections. *)
module Pool = Weak.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Sections = Netcore.Fifo_map.Make (Int)

type keystore = {
  principals : (string, principal) Hashtbl.t;
  bound : (string, int) Hashtbl.t; (* host -> principals bound to it *)
  sections : section Sections.t; (* by {!slice_hash} of the tag *)
  pool : Pool.t;
}

let section_capacity = 4096

let keystore () =
  {
    principals = Hashtbl.create 16;
    bound = Hashtbl.create 16;
    sections = Sections.create ~capacity:section_capacity 16;
    pool = Pool.create 16;
  }

(* A hash of [s]'s slice that allocates nothing, so a tag can be looked
   up where it sits in a received tag list. *)
let rec slice_hash s i stop h =
  if i >= stop then h
  else
    slice_hash s (i + 1) stop
      (((h * 31) + Char.code (String.unsafe_get s i)) land max_int)

let bind ks delta hosts =
  List.iter
    (fun host ->
      let n = delta + Option.value ~default:0 (Hashtbl.find_opt ks.bound host) in
      if n > 0 then Hashtbl.replace ks.bound host n
      else Hashtbl.remove ks.bound host)
    (Option.value ~default:[] hosts)

let add_principal ks ~public ~secret hosts =
  (match Hashtbl.find_opt ks.principals public with
  | Some old ->
      (* Tags cached under the handle were checked against its old
         secret, and it answers only for its new hosts. *)
      Sections.filter_inplace (fun _ s -> not (String.equal s.signer public)) ks.sections;
      bind ks (-1) old.hosts
  | None -> ());
  bind ks 1 hosts;
  let key = prepare secret in
  Hashtbl.replace ks.principals public { key; hosts; verifier = Some key }

let register_public ks ~public ~secret = add_principal ks ~public ~secret None
let register ks kp = register_public ks ~public:kp.public ~secret:kp.secret

let register_for ks kp ~hosts =
  add_principal ks ~public:kp.public ~secret:kp.secret (Some hosts)

let signs_for ks host = Hashtbl.mem ks.bound host

let answers_for ks ~public host =
  match Hashtbl.find ks.principals public with
  | { hosts = None; _ } -> true
  | { hosts = Some hosts; _ } -> List.mem host hosts
  | exception Not_found -> false

let verifier ks ~public =
  match Hashtbl.find ks.principals public with
  | p ->
      ignore (keyed p.key);
      p.verifier
  | exception Not_found -> None

let matches_prefix st s pos len n =
  Hmac.finalize_into st.hmac st.buf;
  Hex.spells_sub s pos len (Bytes.unsafe_to_string st.buf) n

let matches_sub st s pos len = matches_prefix st s pos len Sha256.digest_size
let matches_short_sub st s pos len = matches_prefix st s pos len short_bytes

let verify ks ~public ~signature data =
  match verifier ks ~public with
  | None -> false
  | Some st ->
      List.iter (add st) data;
      matches_sub st signature 0 (String.length signature)

(* Whether [s] holds [n]'s decimal digits in [i .. j], read right to
   left. *)
let rec digits_at s i j n =
  if j < i then n = 0
  else
    String.unsafe_get s j = Char.unsafe_chr (Char.code '0' + (n mod 10))
    && digits_at s i (j - 1) (n / 10)

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* Whether [a] from [i] and [b] from [j] agree on [len] bytes: eight at a
   time, then one at a time. The caller checks both slices' bounds. *)
let rec same_bytes a i b j len =
  if len >= 8 then
    get64u a i = get64u b j
    && same_bytes a (i + 8) b (j + 8) (len - 8)
  else
    len = 0
    || String.unsafe_get a i = String.unsafe_get b j
       && same_bytes a (i + 1) b (j + 1) (len - 1)

let element_at_sub s pos d dpos n =
  let k = digit_count n in
  let colon = pos + k in
  if pos < 0 || colon + 1 + n > String.length s then -1
  else if
    digits_at s pos (colon - 1) n
    && String.unsafe_get s colon = ':'
    && same_bytes s (colon + 1) d dpos n
  then colon + 1 + n
  else -1

(* The element at [pos] of [bytes]: its decimal length [n] read up to
   the ':' (at most 18 digits), then its bytes compared with [s] from
   [i]. *)
let rec element_from bytes pos s i n digits =
  if pos >= String.length bytes || digits > 18 then -1
  else
    match String.unsafe_get bytes pos with
    | ':' ->
        if
          digits > 0
          && pos + 1 + n <= String.length bytes
          && i >= 0
          && i + n <= String.length s
          && same_bytes bytes (pos + 1) s i n
        then n
        else -1
    | '0' .. '9' as c ->
        element_from bytes (pos + 1) s i ((n * 10) + Char.code c - 48) (digits + 1)
    | _ -> -1

let element_of bytes pos s i = if pos < 0 then -1 else element_from bytes pos s i 0 0

let cached_section ks ~public tags pos len =
  if pos < 0 || len < 0 || pos > String.length tags - len then ""
  else
    match Sections.find ks.sections (slice_hash tags pos (pos + len) 0) with
    | e ->
        if
          String.length e.tag = len
          && same_bytes e.tag 0 tags pos len
          && String.equal e.signer public
        then e.bytes
        else ""
    | exception Not_found -> ""

let cache_section ks ~public ~tag data =
  Sections.add ks.sections
    (slice_hash tag 0 (String.length tag) 0)
    { tag; signer = public; bytes = Pool.merge ks.pool (canonical data) }

let cached_sections ks = Sections.length ks.sections

