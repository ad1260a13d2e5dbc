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

(* Stream a pair line ({!Payload.fold_pairs}) of a payload or of a
   section's cached lines: its key, then its value. *)
let add_pair st () s i k e =
  Idcrypto.Sign.add_sub st s i (k - i);
  Idcrypto.Sign.add_sub st s (k + 2) (e - k - 2)

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
   slice [nonce_f] of [nonce]. *)
let start_binding tag st ~proto ~src_port ~dst_port ~host ~peer ~nonce
    ~nonce_f ~tags ~scopes =
  Idcrypto.Sign.add st binding_domain;
  add_header st proto src_port dst_port;
  add_ip st host;
  add_ip st peer;
  Idcrypto.Sign.add_sub st nonce (Slice.start nonce_f) (Slice.length nonce_f);
  add_joined tag st tags;
  match scopes with Some l -> add_joined scope_to_string st l | None -> ()

let line_length key n = String.length key + n + 3

let signature_length tag ~public ~tags ~scopes ~host ~peer ~nonce_f =
  line_length signer_key (String.length public)
  + line_length tags_key (joined_length tag 0 tags)
  + (match scopes with
    | Some l -> line_length scopes_key (joined_length scope_to_string 0 l)
    | None -> 0)
  + line_length host_key (Ipv4.text_length host)
  + line_length peer_key (Ipv4.text_length peer)
  + line_length nonce_key (Slice.length nonce_f)
  + line_length sig_key sig_length

(* Write the signature section at [pos], [b]'s last [signature_length]
   bytes; [st] holds the whole binding. *)
let write_signature tag b pos st ~public ~tags ~scopes ~host ~peer ~nonce
    ~nonce_f =
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
  let pos = Payload.put_key b pos nonce_key in
  Bytes.blit_string nonce (Slice.start nonce_f) b pos (Slice.length nonce_f);
  let pos = ends (pos + Slice.length nonce_f) in
  let pos = Payload.put_key b pos sig_key in
  Idcrypto.Sign.finish_into st b pos;
  Bytes.unsafe_set b (pos + sig_length) '\n'

(* The caller's handle, tags and nonce go on the wire as values: they
   hold no line break ({!Key_value.valid_value}, a word at a time). *)
let check_sub key v f =
  if Payload.line_break v (Slice.start f) < Slice.stop f then
    invalid_arg ("Key_value.pair: bad value for " ^ key)

let check_value key v = check_sub key v (Slice.v 0 (String.length v))

let rec check_tags tag = function
  | [] -> ()
  | t :: rest ->
      check_value tags_key (tag t);
      check_tags tag rest

let check_values tag ~public ~tags ~nonce ~nonce_f =
  check_value signer_key public;
  check_tags tag tags;
  check_sub nonce_key nonce nonce_f

(* The pairs of the section [i, stop) of [s] when the first of [tags],
   its tag, is {!per_flow}; the tags after it. *)
let add_per_flow_section st tags s i stop =
  match tags with
  | tag :: rest ->
      if String.equal tag per_flow then Payload.fold_pairs add_pair st () s i stop;
      rest
  | [] -> []

let sign_with ~public ~key ~tags ?scopes ~host ~peer ?(nonce = "-")
    (r : Response.t) =
  let nonce_f = Slice.v 0 (String.length nonce) in
  check_values Fun.id ~public ~tags ~nonce ~nonce_f;
  let proto = r.Response.proto
  and src_port = r.Response.src_port
  and dst_port = r.Response.dst_port
  and s = r.Response.payload in
  let st = Idcrypto.Sign.keyed key in
  start_binding Fun.id st ~proto ~src_port ~dst_port ~host ~peer ~nonce
    ~nonce_f ~tags ~scopes;
  let body = Header.length proto src_port dst_port in
  ignore (Payload.fold_sections add_per_flow_section st tags s body : string list);
  let n = String.length s in
  let sep = if n > body then 1 else 0 in
  let b =
    Bytes.create
      (n + sep
      + signature_length Fun.id ~public ~tags ~scopes ~host ~peer ~nonce_f)
  in
  Bytes.blit_string s 0 b 0 n;
  if sep = 1 then Bytes.unsafe_set b n '\n';
  write_signature Fun.id b (n + sep) st ~public ~tags ~scopes ~host ~peer ~nonce
    ~nonce_f;
  Payload.view ~proto ~src_port ~dst_port b

(* The {!section_tag} of the section [i, stop) of [s], streamed from its
   lines where they sit, before [tags]. *)
let add_section_tag key tags s i stop =
  let st = Idcrypto.Sign.keyed key in
  Idcrypto.Sign.add st section_domain;
  Payload.fold_pairs add_pair st () s i stop;
  Idcrypto.Sign.finish_short st :: tags

let sign ~(keypair : Idcrypto.Sign.keypair) ~host ~peer ?nonce (r : Response.t) =
  let key = Idcrypto.Sign.prepare keypair.Idcrypto.Sign.secret in
  sign_with ~public:keypair.Idcrypto.Sign.public ~key
    ~tags:
      (List.rev
         (Payload.fold_sections add_section_tag key [] r.Response.payload
            (Payload.body r)))
    ~host ~peer ?nonce r

let rec add_per_flow_parts st = function
  | [] -> ()
  | (p : Payload.part) :: rest ->
      if String.equal p.tag per_flow then
        Payload.fold_pairs add_pair st () p.text 0 (String.length p.text);
      add_per_flow_parts st rest

let part_tag (p : Payload.part) = p.tag

(* The query's nonce where it sits, or ["-"] for a query that carried
   none. *)
let no_nonce = "-"

let assemble ~public ~key ~host ~peer ~(query : Query.t) ~scopes parts =
  let proto = query.proto
  and src_port = query.src_port
  and dst_port = query.dst_port
  and nonce = if query.nonce_at = Slice.none then no_nonce else query.payload
  and nonce_f =
    if query.nonce_at = Slice.none then Slice.v 0 (String.length no_nonce)
    else query.nonce_at
  in
  check_values part_tag ~public ~tags:parts ~nonce ~nonce_f;
  let scopes = Some scopes in
  let st = Idcrypto.Sign.keyed key in
  start_binding part_tag st ~proto ~src_port ~dst_port ~host ~peer ~nonce
    ~nonce_f ~tags:parts ~scopes;
  add_per_flow_parts st parts;
  let n = Payload.length ~proto ~src_port ~dst_port parts in
  let sep = match parts with [] -> 0 | _ :: _ -> 1 in
  let b =
    Bytes.create
      (n + sep
      + signature_length part_tag ~public ~tags:parts ~scopes ~host ~peer ~nonce_f)
  in
  ignore (Payload.write b ~proto ~src_port ~dst_port parts : int);
  if sep = 1 then Bytes.unsafe_set b n '\n';
  write_signature part_tag b (n + sep) st ~public ~tags:parts ~scopes ~host
    ~peer ~nonce ~nonce_f;
  Payload.view ~proto ~src_port ~dst_port b

(* --- verifying ---

   The signature section is read as slices of the payload: each field
   is the value of its last binding, from where it starts to its line's
   end. *)

type verdict = Valid of int | Unsigned | Invalid

(* The first signature section: the [covered] sections before it, where
   it ends ([ends], -1 until found; a section follows only when [ends]
   is short of the payload's end), its signer, and the slice of each
   other field, [Slice.none] where it has none. The reading is made at
   the first field line and reused, fields cleared, while a section
   turns out to be no signature section. *)
type signature = {
  s : string;
  mutable covered : int;
  mutable ends : int;
  mutable signer : string;
  mutable signer_f : Slice.t;
  mutable sig_f : Slice.t;
  mutable tags_f : Slice.t;
  mutable host_f : Slice.t;
  mutable peer_f : Slice.t;
  mutable nonce_f : Slice.t;
  mutable scopes_f : Slice.t;
}

let reading s =
  {
    s;
    covered = 0;
    ends = -1;
    signer = "";
    signer_f = Slice.none;
    sig_f = Slice.none;
    tags_f = Slice.none;
    host_f = Slice.none;
    peer_f = Slice.none;
    nonce_f = Slice.none;
    scopes_f = Slice.none;
  }

let clear sg =
  sg.signer_f <- Slice.none;
  sg.sig_f <- Slice.none;
  sg.tags_f <- Slice.none;
  sg.host_f <- Slice.none;
  sg.peer_f <- Slice.none;
  sg.nonce_f <- Slice.none;
  sg.scopes_f <- Slice.none

(* A section carrying both a signer and a tag is a signature section. *)
let complete sg = sg.signer_f <> Slice.none && sg.sig_f <> Slice.none

let add_field st sg f = Idcrypto.Sign.add_sub st sg.s (Slice.start f) (Slice.length f)

(* The field list [pos, stop) of a tag or scope list is read in place:
   field [i] is the slice up to the next ',' (or the list's end). *)
let field_end s i stop = Payload.index_in s ',' i stop

let is_per_flow s pos stop =
  stop = pos + 1 && String.unsafe_get s pos = per_flow.[0]

(* The pairs of the section [i, stop) of [s] when the first field of
   [tags], what is left of a tag list, is {!per_flow}; the fields after
   it, [Slice.none] after the last. *)
let add_per_flow st tags s i stop =
  if tags = Slice.none then tags
  else
    let field = field_end s (Slice.start tags) (Slice.stop tags) in
    if is_per_flow s (Slice.start tags) field then
      Payload.fold_pairs add_pair st () s i stop;
    if field >= Slice.stop tags then Slice.none else Slice.v (field + 1) (Slice.stop tags)

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

(* The keys and values of the lines from [i] to [stop], in order. A
   fold would build them backwards and reverse them. *)
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
          Payload.fold_pairs add_pair st () s i stop;
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

(* The prefix of every field's key. *)
let field_prefix = "response-"

(* Note the field line of the [n]th section whose key runs past
   [field_prefix] at [q] and whose line ends at [e] in the reading. The
   key's length, between 12 and 15 for every field's key, settles most
   keys without a comparison. *)
let note sg n q e =
  let s = sg.s and i = q - String.length field_prefix in
  let k = Payload.index_in s ':' q e in
  let f = Slice.v (k + 2) e in
  sg.covered <- n;
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

(* Read the field line of the [n]th section past [field_prefix] at [q],
   or the break [q = e] that ends that section, into the reading [sg],
   made at the first field line, until a signature section is found. *)
let read_field () sg s n q e =
  match sg with
  | Some r when r.ends >= 0 -> sg
  | Some r when q = e ->
      if complete r then r.ends <- e else clear r;
      sg
  | None when q = e -> sg
  | Some r ->
      note r n q e;
      sg
  | None ->
      let r = reading s in
      note r n q e;
      Some r

(* One pass over the lines that start with 'r', every field's first
   byte, and the blank ones. *)
let signature (r : Response.t) =
  let s = r.Response.payload in
  match
    Payload.fold_lines field_prefix read_field () None s (Payload.body r)
      (String.length s)
  with
  | Some sg as found when sg.ends >= 0 || complete sg ->
      if sg.ends < 0 then sg.ends <- String.length s;
      sg.signer <- Slice.sub s sg.signer_f;
      found
  | Some _ | None -> None

let check ks (r : Response.t) = function
  | None -> Unsigned
  | Some sg ->
      if
        sg.tags_f = Slice.none || sg.host_f = Slice.none || sg.peer_f = Slice.none
        || sg.nonce_f = Slice.none
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
            let tags = Slice.start sg.tags_f and tags_end = Slice.stop sg.tags_f in
            Idcrypto.Sign.add st binding_domain;
            add_header st r.Response.proto r.Response.src_port r.Response.dst_port;
            add_field st sg sg.host_f;
            add_field st sg sg.peer_f;
            add_field st sg sg.nonce_f;
            add_field st sg sg.tags_f;
            if sg.scopes_f <> Slice.none then add_field st sg sg.scopes_f;
            (* Only a per-flow field holds a '-' (a tag is hex): without
               one, no section is walked. *)
            if Payload.index_in s '-' tags tags_end < tags_end then
              ignore (Payload.fold_sections add_per_flow st sg.tags_f s body : Slice.t);
            if
              Idcrypto.Sign.matches_sub st s (Slice.start sg.sig_f) (Slice.length sg.sig_f)
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
  sg.host_f <> Slice.none && sg.peer_f <> Slice.none && sg.nonce_f <> Slice.none
  && Ipv4.is_text_sub host sg.s (Slice.start sg.host_f) (Slice.stop sg.host_f)
  && Ipv4.is_text_sub peer sg.s (Slice.start sg.peer_f) (Slice.stop sg.peer_f)
  &&
  match query with
  | Some q when q.nonce_at <> Slice.none ->
      Slice.length q.nonce_at = Slice.length sg.nonce_f
      && Payload.same_sub q.payload (Slice.start q.nonce_at) sg.s
           (Slice.start sg.nonce_f) (Slice.length sg.nonce_f)
  | Some _ | None -> false

(* The scope named by the field [pos, stop) of [s]; [None] for a name
   this verifier does not know. *)
let scope_at s pos stop =
  match stop - pos with
  | 6 when Payload.same_sub s pos "socket" 0 6 -> Some Socket
  | 4 when Payload.same_sub s pos "host" 0 4 -> Some Host
  | 4 when Payload.same_sub s pos "flow" 0 4 -> Some Flow
  | _ -> None

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
    when sg.ends >= String.length sg.s && sg.covered > 0
         && sg.scopes_f <> Slice.none ->
      narrowest sg.s (Slice.start sg.scopes_f) (Slice.stop sg.scopes_f) sg.covered
        Host
  | Some _ | None -> Flow

let scope r = scope_of (signature r)
