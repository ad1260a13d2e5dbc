open Netcore

let signer_key = Key_value.response_signer
let tags_key = Key_value.response_tags
let host_key = Key_value.response_host
let peer_key = Key_value.response_peer
let nonce_key = Key_value.response_nonce
let sig_key = Key_value.response_sig
let scopes_key = Key_value.response_scopes
let per_flow = "-"

type scope = Flow | Socket | Host

let scope_to_string = function
  | Flow -> "flow"
  | Socket -> "socket"
  | Host -> "host"

(* The first element of each covered string: a section tag can never
   stand in for a binding tag, nor the other way round. *)
let section_domain = "identxx-section"
let binding_domain = "identxx-binding"

let rec add_pairs st = function
  | [] -> ()
  | (p : Key_value.pair) :: rest ->
      Idcrypto.Sign.add st p.key;
      Idcrypto.Sign.add st p.value;
      add_pairs st rest

let section_tag key section =
  let st = Idcrypto.Sign.keyed key in
  Idcrypto.Sign.add st section_domain;
  add_pairs st section;
  Idcrypto.Sign.finish_short st

(* Stream the pairs of the canonical lines from [i] to [stop] of [s]
   (a payload, or a section's cached lines): each key, then its
   value. *)
let rec add_lines st s i stop =
  if i < stop then begin
    let k = Payload.colon s i in
    let e = Payload.line_end s (k + 2) in
    Idcrypto.Sign.add_sub st s i (k - i);
    Idcrypto.Sign.add_sub st s (k + 2) (e - k - 2);
    add_lines st s (e + 1) stop
  end

(* The first element of a binding: the flow header, fed in parts, never
   built. *)
let add_header st proto src_port dst_port =
  let proto = Proto.to_string proto in
  Idcrypto.Sign.begin_element st
    (String.length proto
    + Idcrypto.Sign.int_length src_port
    + Idcrypto.Sign.int_length dst_port
    + 2);
  Idcrypto.Sign.feed st proto;
  Idcrypto.Sign.feed st " ";
  Idcrypto.Sign.feed_int st src_port;
  Idcrypto.Sign.feed st " ";
  Idcrypto.Sign.feed_int st dst_port

(* --- signing ---

   A signer writes the signature section itself, after the sections it
   covers, into the answer's one buffer: the lines in the order below,
   the binding tag's hex last, straight from the stream. *)

let sig_length = 64 (* hex digits of the binding tag *)

(* A list as it goes on the wire, each item spelt by [name], joined
   with ','. *)
let rec joined_length name n = function
  | [] -> n
  | [ x ] -> n + String.length (name x)
  | x :: rest -> joined_length name (n + String.length (name x) + 1) rest

let rec feed_joined name st = function
  | [] -> ()
  | [ x ] -> Idcrypto.Sign.feed st (name x)
  | x :: rest ->
      Idcrypto.Sign.feed st (name x);
      Idcrypto.Sign.feed st ",";
      feed_joined name st rest

let rec put_joined name b pos = function
  | [] -> pos
  | [ x ] -> Payload.put b pos (name x)
  | x :: rest ->
      put_joined name b (Payload.put_char b (Payload.put b pos (name x)) ',') rest

let add_joined name st l =
  Idcrypto.Sign.begin_element st (joined_length name 0 l);
  feed_joined name st l

let add_ip st ip =
  let a = Ipv4.to_int ip in
  Idcrypto.Sign.begin_element st (Ipv4.text_length ip);
  Idcrypto.Sign.feed_int st ((a lsr 24) land 0xff);
  Idcrypto.Sign.feed st ".";
  Idcrypto.Sign.feed_int st ((a lsr 16) land 0xff);
  Idcrypto.Sign.feed st ".";
  Idcrypto.Sign.feed_int st ((a lsr 8) land 0xff);
  Idcrypto.Sign.feed st ".";
  Idcrypto.Sign.feed_int st (a land 0xff)

(* What a binding tag covers up to the per-flow sections, streamed into
   [st]: the domain, the flow header, the answering host, its peer, the
   nonce, the tag list and the scope list as they go on the wire (the
   scope list only when the answer declares one). The nonce is the
   [nonce_len] bytes of [nonce] from [nonce_at]. *)
let start_binding tag st ~proto ~src_port ~dst_port ~host ~peer ~nonce
    ~nonce_at ~nonce_len ~tags ~scopes =
  Idcrypto.Sign.add st binding_domain;
  add_header st proto src_port dst_port;
  add_ip st host;
  add_ip st peer;
  Idcrypto.Sign.add_sub st nonce nonce_at nonce_len;
  add_joined tag st tags;
  match scopes with Some l -> add_joined scope_to_string st l | None -> ()

let line_length key n = String.length key + n + 3

let signature_length tag ~public ~tags ~scopes ~host ~peer ~nonce_len =
  line_length signer_key (String.length public)
  + line_length tags_key (joined_length tag 0 tags)
  + (match scopes with
    | Some l -> line_length scopes_key (joined_length scope_to_string 0 l)
    | None -> 0)
  + line_length host_key (Ipv4.text_length host)
  + line_length peer_key (Ipv4.text_length peer)
  + line_length nonce_key nonce_len
  + line_length sig_key sig_length

(* Write the signature section at [pos], [b]'s last [signature_length]
   bytes; [st] holds the whole binding. *)
let write_signature tag b pos st ~public ~tags ~scopes ~host ~peer ~nonce
    ~nonce_at ~nonce_len =
  let ends pos = Payload.put_char b pos '\n' in
  let pos = ends (Payload.put b (Payload.put_key b pos signer_key) public) in
  let pos = ends (put_joined tag b (Payload.put_key b pos tags_key) tags) in
  let pos =
    match scopes with
    | Some l ->
        ends (put_joined scope_to_string b (Payload.put_key b pos scopes_key) l)
    | None -> pos
  in
  let pos = ends (Ipv4.write_text b (Payload.put_key b pos host_key) host) in
  let pos = ends (Ipv4.write_text b (Payload.put_key b pos peer_key) peer) in
  let pos =
    ends (Payload.put_sub b (Payload.put_key b pos nonce_key) nonce nonce_at nonce_len)
  in
  let pos = Payload.put_key b pos sig_key in
  Idcrypto.Sign.finish_into st b pos;
  Bytes.unsafe_set b (pos + sig_length) '\n'

(* The caller's handle, tags and nonce go on the wire as values: they
   hold no line break ({!Key_value.valid_value}, a word at a time). *)
let check_sub key v i len =
  if Payload.line_break v i < i + len then
    invalid_arg ("Key_value.pair: bad value for " ^ key)

let check_value key v = check_sub key v 0 (String.length v)

let rec check_tags tag = function
  | [] -> ()
  | t :: rest ->
      check_value tags_key (tag t);
      check_tags tag rest

let check_values tag ~public ~tags ~nonce ~nonce_at ~nonce_len =
  check_value signer_key public;
  check_tags tag tags;
  check_sub nonce_key nonce nonce_at nonce_len

(* The pairs of each section of [s] from [i] whose tag is {!per_flow}. *)
let rec add_per_flow_view st s i tags =
  match tags with
  | tag :: rest when i < String.length s ->
      let stop = Payload.section_stop s i in
      if String.equal tag per_flow then add_lines st s i stop;
      add_per_flow_view st s (stop + 1) rest
  | _ -> ()

let sign_with ~public ~key ~tags ?scopes ~host ~peer ?(nonce = "-")
    (r : Response.t) =
  let nonce_at = 0 and nonce_len = String.length nonce in
  check_values Fun.id ~public ~tags ~nonce ~nonce_at ~nonce_len;
  let proto = r.Response.proto
  and src_port = r.Response.src_port
  and dst_port = r.Response.dst_port
  and s = r.Response.payload in
  let st = Idcrypto.Sign.keyed key in
  start_binding Fun.id st ~proto ~src_port ~dst_port ~host ~peer ~nonce
    ~nonce_at ~nonce_len ~tags ~scopes;
  let body = Header.length proto src_port dst_port in
  add_per_flow_view st s body tags;
  let n = String.length s in
  let sep = if n > body then 1 else 0 in
  let b =
    Bytes.create
      (n + sep
      + signature_length Fun.id ~public ~tags ~scopes ~host ~peer ~nonce_len)
  in
  Bytes.blit_string s 0 b 0 n;
  if sep = 1 then Bytes.unsafe_set b n '\n';
  write_signature Fun.id b (n + sep) st ~public ~tags ~scopes ~host ~peer ~nonce
    ~nonce_at ~nonce_len;
  Payload.view ~proto ~src_port ~dst_port b

(* The {!section_tag} of each section of [s] from [i], streamed from its
   lines where they sit. *)
let rec section_tags key s i =
  if i >= String.length s then []
  else
    let stop = Payload.section_stop s i in
    let st = Idcrypto.Sign.keyed key in
    Idcrypto.Sign.add st section_domain;
    add_lines st s i stop;
    let tag = Idcrypto.Sign.finish_short st in
    tag :: section_tags key s (stop + 1)

let sign ~(keypair : Idcrypto.Sign.keypair) ~host ~peer ?nonce (r : Response.t) =
  let key = Idcrypto.Sign.prepare keypair.Idcrypto.Sign.secret in
  sign_with ~public:keypair.Idcrypto.Sign.public ~key
    ~tags:(section_tags key r.Response.payload (Payload.body r))
    ~host ~peer ?nonce r

let rec add_per_flow_parts st = function
  | [] -> ()
  | (p : Payload.part) :: rest ->
      if String.equal p.tag per_flow then
        add_lines st p.text 0 (String.length p.text);
      add_per_flow_parts st rest

let part_tag (p : Payload.part) = p.tag

(* The query's nonce where it sits, or ["-"] for a query that carried
   none. *)
let no_nonce = "-"

let query_nonce (q : Query.t) =
  if q.nonce_at < 0 then no_nonce else q.payload

let query_nonce_at (q : Query.t) = if q.nonce_at < 0 then 0 else q.nonce_at lsr 32

let query_nonce_len (q : Query.t) =
  if q.nonce_at < 0 then String.length no_nonce
  else (q.nonce_at land 0xffff_ffff) - (q.nonce_at lsr 32)

let assemble ~public ~key ~host ~peer ~(query : Query.t) ~scopes parts =
  let proto = query.proto
  and src_port = query.src_port
  and dst_port = query.dst_port
  and nonce = query_nonce query
  and nonce_at = query_nonce_at query
  and nonce_len = query_nonce_len query in
  check_values part_tag ~public ~tags:parts ~nonce ~nonce_at ~nonce_len;
  let scopes = Some scopes in
  let st = Idcrypto.Sign.keyed key in
  start_binding part_tag st ~proto ~src_port ~dst_port ~host ~peer ~nonce
    ~nonce_at ~nonce_len ~tags:parts ~scopes;
  add_per_flow_parts st parts;
  let n = Payload.length ~proto ~src_port ~dst_port parts in
  let sep = match parts with [] -> 0 | _ :: _ -> 1 in
  let b =
    Bytes.create
      (n + sep
      + signature_length part_tag ~public ~tags:parts ~scopes ~host ~peer ~nonce_len)
  in
  ignore (Payload.write b ~proto ~src_port ~dst_port parts : int);
  if sep = 1 then Bytes.unsafe_set b n '\n';
  write_signature part_tag b (n + sep) st ~public ~tags:parts ~scopes ~host
    ~peer ~nonce ~nonce_at ~nonce_len;
  Payload.view ~proto ~src_port ~dst_port b

(* --- verifying ---

   The signature section is read as slices of the payload: each field
   is the value of its last binding, from where it starts to its line's
   end, packed into one int. *)

type verdict = Valid of int | Unsigned | Invalid

(* A slice [start, stop) of the payload, or [none]. *)
let none = -1
let slice start stop = (start lsl 32) lor stop
let start f = f lsr 32
let stop f = f land 0xffff_ffff

(* The first signature section: the [covered] sections before it, where
   it ends ([ends]; a section follows only when [ends] is short of the
   payload's end), its signer, and the slice of each other field, [none]
   where it has none. The reading is made at the section's first field
   line and reused, fields cleared, while a section turns out to be no
   signature section. *)
type signature = {
  s : string;
  mutable covered : int;
  mutable ends : int;
  mutable signer : string;
  mutable signer_f : int;
  mutable sig_f : int;
  mutable tags_f : int;
  mutable host_f : int;
  mutable peer_f : int;
  mutable nonce_f : int;
  mutable scopes_f : int;
}

let reading s =
  {
    s;
    covered = 0;
    ends = 0;
    signer = "";
    signer_f = none;
    sig_f = none;
    tags_f = none;
    host_f = none;
    peer_f = none;
    nonce_f = none;
    scopes_f = none;
  }

let clear sg =
  sg.signer_f <- none;
  sg.sig_f <- none;
  sg.tags_f <- none;
  sg.host_f <- none;
  sg.peer_f <- none;
  sg.nonce_f <- none;
  sg.scopes_f <- none

let add_field st sg f = Idcrypto.Sign.add_sub st sg.s (start f) (stop f - start f)

(* The field list [pos, stop) of a tag or scope list is read in place:
   field [i] is the slice up to the next ',' (or the list's end). *)
let field_end s i stop = Payload.index_in s ',' i stop

let is_per_flow s pos stop =
  stop = pos + 1 && String.unsafe_get s pos = per_flow.[0]

(* The pairs of each of the [n] sections from [i] whose field of the tag
   list [pos, tags_end) is {!per_flow}. Only a per-flow field holds a
   '-' (a tag is hex): without one, no section is walked. *)
let rec add_per_flow st s i pos tags_end n =
  if n > 0 && Payload.index_in s '-' pos tags_end < tags_end then begin
    let field = field_end s pos tags_end in
    let stop = Payload.section_stop s i in
    if is_per_flow s pos field then add_lines st s i stop;
    add_per_flow st s (stop + 1) (field + 1) tags_end (n - 1)
  end

(* Whether [bytes], a cached section's canonical encoding, holds exactly
   the covered elements of the section whose lines start at [i]: where
   the section ends if so, -1 if not. Each line is compared with the
   elements where both sit: the key's bytes and the ':' after them, then
   the value's bytes and the '\n' after them, so the line need not be
   scanned for its ends first. *)
let rec same_lines bytes pos s i =
  let n = String.length s in
  let key = Idcrypto.Sign.element_of bytes pos s i in
  let v = i + key + 2 in
  if key < 0 || v > n || String.unsafe_get s (v - 2) <> ':' then -1
  else
    let pos = pos + Idcrypto.Sign.int_length key + 1 + key in
    let value = Idcrypto.Sign.element_of bytes pos s v in
    let e = v + value in
    if value < 0 || e >= n || String.unsafe_get s e <> '\n' then -1
    else
      let pos = pos + Idcrypto.Sign.int_length value + 1 + value in
      if e + 1 >= n || String.unsafe_get s (e + 1) = '\n' then
        if pos = String.length bytes then e + 1 else -1
      else if pos = String.length bytes then -1
      else same_lines bytes pos s (e + 1)

let rec elements s i stop =
  if i >= stop then []
  else
    let k = Payload.colon s i in
    let e = Payload.line_end s (k + 2) in
    String.sub s i (k - i)
    :: String.sub s (k + 2) (e - k - 2)
    :: elements s (e + 1) stop

(* A static section, whose lines start at [i], checks against its tag,
   the field [pos, field) of the tag list: a cached copy of the tag must
   carry the same elements; otherwise the tag is computed, and cached
   when it verifies. Where the section ends if it checks, -1 if not. *)
let section_ok ks ~public s pos field i =
  match Idcrypto.Sign.cached_section ks ~public s pos (field - pos) with
  | "" -> (
      let stop = Payload.section_stop s i in
      match Idcrypto.Sign.verifier ks ~public with
      | None -> -1
      | Some st ->
          Idcrypto.Sign.add st section_domain;
          add_lines st s i stop;
          if Idcrypto.Sign.matches_short_sub st s pos (field - pos) then begin
            Idcrypto.Sign.cache_section ks ~public
              ~tag:(String.sub s pos (field - pos))
              (section_domain :: elements s i stop);
            stop
          end
          else -1)
  | bytes ->
      same_lines bytes
        (Idcrypto.Sign.element_at_sub bytes 0 section_domain 0
           (String.length section_domain))
        s i

(* Whether the tag list [pos, tags_end) names exactly the [n] sections
   from [i] and every static one checks. *)
let rec statics_ok ks ~public s i pos tags_end n =
  if n = 0 then pos = tags_end + 1
  else
    pos <= tags_end
    &&
    let field = field_end s pos tags_end in
    let stop =
      if is_per_flow s pos field then Payload.section_stop s i
      else section_ok ks ~public s pos field i
    in
    stop >= 0 && statics_ok ks ~public s (stop + 1) (field + 1) tags_end (n - 1)

(* Whether the line at [i] starts with "response-", as every field's
   key does. *)
let is_field_line s i = Key_value.is_at "response-" s i

(* Note the field line at [i], whose key ends at [k] and value at [e],
   in the reading. The length, between 12 and 15 for every field's key,
   settles most keys without a comparison. *)
let note sg i k e =
  let s = sg.s and f = slice (k + 2) e in
  match k - i with
  | 12 -> if Key_value.is_at sig_key s i then sg.sig_f <- f
  | 13 ->
      if Key_value.is_at tags_key s i then sg.tags_f <- f
      else if Key_value.is_at host_key s i then sg.host_f <- f
      else if Key_value.is_at peer_key s i then sg.peer_f <- f
  | 14 -> if Key_value.is_at nonce_key s i then sg.nonce_f <- f
  | 15 ->
      if Key_value.is_at signer_key s i then sg.signer_f <- f
      else if Key_value.is_at scopes_key s i then sg.scopes_f <- f
  | _ -> ()

(* The first section from [i] on that carries both a signer and a tag,
   the section before [i] being the [covered]th; [sg], when made, holds
   what that section's field lines said so far. Only the lines that
   start with 'r' or are blank — every field's key starts "response-" —
   are looked for, a word at a time; each field line is read once. *)
let rec find_signature s covered sg i =
  let n = String.length s in
  let p = Payload.line_from s 'r' i in
  if p >= n || String.unsafe_get s p = '\n' then
    match sg with
    | Some r when r.signer_f <> none && r.sig_f <> none ->
        r.covered <- covered;
        r.ends <- p;
        r.signer <- String.sub s (start r.signer_f) (stop r.signer_f - start r.signer_f);
        sg
    | _ ->
        if p >= n then None
        else begin
          Option.iter clear sg;
          find_signature s (covered + 1) sg (p + 1)
        end
  else if not (is_field_line s p) then find_signature s covered sg (p + 1)
  else
    let sg = match sg with Some _ -> sg | None -> Some (reading s) in
    let k = Payload.colon s p in
    let e = Payload.line_end s (k + 2) in
    note (Option.get sg) p k e;
    find_signature s covered sg (e + 1)

let signature (r : Response.t) =
  find_signature r.Response.payload 0 None
    (Header.length r.Response.proto r.Response.src_port r.Response.dst_port)

let check ks (r : Response.t) = function
  | None -> Unsigned
  | Some sg ->
      if sg.tags_f = none || sg.host_f = none || sg.peer_f = none || sg.nonce_f = none
      then Invalid
      else (
        match Idcrypto.Sign.verifier ks ~public:sg.signer with
        | None -> Invalid
        | Some st ->
            let s = sg.s in
            let body =
              Header.length r.Response.proto r.Response.src_port
                r.Response.dst_port
            in
            let tags = start sg.tags_f and tags_end = stop sg.tags_f in
            Idcrypto.Sign.add st binding_domain;
            add_header st r.Response.proto r.Response.src_port r.Response.dst_port;
            add_field st sg sg.host_f;
            add_field st sg sg.peer_f;
            add_field st sg sg.nonce_f;
            add_field st sg sg.tags_f;
            if sg.scopes_f <> none then add_field st sg sg.scopes_f;
            add_per_flow st s body tags tags_end sg.covered;
            if
              Idcrypto.Sign.matches_sub st s (start sg.sig_f)
                (stop sg.sig_f - start sg.sig_f)
              && (if sg.covered = 0 then tags_end = tags
                  else
                    statics_ok ks ~public:sg.signer s body tags tags_end
                      sg.covered)
            then Valid sg.covered
            else Invalid)

let verify keystore r = check keystore r (signature r)

let signer (sg : signature) = sg.signer

let closes sg =
  let n = String.length sg.s in
  sg.ends >= n
  ||
  let next = sg.ends + 1 in
  Payload.section_stop sg.s next >= n && Payload.is_trace sg.s next n

let echoes (sg : signature) ~host ~peer ~(query : Query.t option) =
  sg.host_f <> none && sg.peer_f <> none && sg.nonce_f <> none
  && Ipv4.is_text_sub host sg.s (start sg.host_f) (stop sg.host_f)
  && Ipv4.is_text_sub peer sg.s (start sg.peer_f) (stop sg.peer_f)
  &&
  match query with
  | Some q when q.nonce_at >= 0 ->
      let len = query_nonce_len q in
      len = stop sg.nonce_f - start sg.nonce_f
      && Payload.same_sub q.payload (query_nonce_at q) sg.s (start sg.nonce_f) len
  | Some _ | None -> false

let rec same_name name scopes pos i =
  i >= String.length name
  || String.unsafe_get scopes (pos + i) = String.unsafe_get name i
     && same_name name scopes pos (i + 1)

let is_name name scopes pos stop =
  stop - pos = String.length name && same_name name scopes pos 0

(* The scope named by the field [pos, stop) of [scopes]; [None] for a
   name this verifier does not know. *)
let scope_at scopes pos stop =
  if is_name "socket" scopes pos stop then Some Socket
  else if is_name "host" scopes pos stop then Some Host
  else if is_name "flow" scopes pos stop then Some Flow
  else None

let narrower a b =
  match (a, b) with
  | Flow, _ | _, Flow -> Flow
  | Socket, _ | _, Socket -> Socket
  | Host, Host -> Host

(* The narrowest of the [n] fields of the list [pos, stop) of [s], or
   [Flow] when the list does not name exactly [n] known scopes. *)
let rec narrowest s pos stop n acc =
  if pos > stop then if n = 0 then acc else Flow
  else if n = 0 then Flow
  else
    let field = field_end s pos stop in
    match scope_at s pos field with
    | None -> Flow
    | Some sc -> narrowest s (field + 1) stop (n - 1) (narrower acc sc)

(* The first signature section must be the last section, and declare
   one scope per section before it. *)
let scope_of = function
  | Some sg
    when sg.ends >= String.length sg.s && sg.covered > 0 && sg.scopes_f <> none ->
      narrowest sg.s (start sg.scopes_f) (stop sg.scopes_f) sg.covered Host
  | Some _ | None -> Flow

let scope r = scope_of (signature r)
