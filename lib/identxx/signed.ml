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

(* The tag list is read in place: field [i] of [tags] is the slice up to
   the next ',' (or the end), and the fields align with the sections. *)
let rec field_end tags i =
  if i >= String.length tags || String.unsafe_get tags i = ',' then i
  else field_end tags (i + 1)

let is_per_flow tags pos stop =
  stop = pos + 1 && String.unsafe_get tags pos = per_flow.[0]

(* The pairs of every section whose tag-list field is {!per_flow}. *)
let rec add_per_flow st tags pos sections =
  match sections with
  | section :: rest when pos <= String.length tags ->
      let stop = field_end tags pos in
      if is_per_flow tags pos stop then add_pairs st section;
      add_per_flow st tags (stop + 1) rest
  | _ -> ()

(* Marks a field a signature section lacks. It is compared physically:
   no string read off a response is this constant, which no other
   module can name. *)
let absent = "\n"
let present v = v != absent

(* What a binding tag covers, streamed into [st]: the domain, the flow
   header, the answering host, its peer, the nonce, the tag list as it
   appears on the wire, the scope list when the answer declares one
   ({!absent} when not), then the pairs of every per-flow section in
   order. The header element is fed in parts, never built. *)
let add_binding st (r : Response.t) ~host ~peer ~nonce ~scopes tags =
  Idcrypto.Sign.add st binding_domain;
  let proto = Proto.to_string r.Response.proto in
  Idcrypto.Sign.begin_element st
    (String.length proto
    + Idcrypto.Sign.int_length r.Response.src_port
    + Idcrypto.Sign.int_length r.Response.dst_port
    + 2);
  Idcrypto.Sign.feed st proto;
  Idcrypto.Sign.feed st " ";
  Idcrypto.Sign.feed_int st r.Response.src_port;
  Idcrypto.Sign.feed st " ";
  Idcrypto.Sign.feed_int st r.Response.dst_port;
  Idcrypto.Sign.add st host;
  Idcrypto.Sign.add st peer;
  Idcrypto.Sign.add st nonce;
  Idcrypto.Sign.add st tags;
  if present scopes then Idcrypto.Sign.add st scopes;
  add_per_flow st tags 0 r.Response.sections

let sign_with ~public ~key ~tags ?scopes ~host ~peer ?(nonce = "-") r =
  let host = Ipv4.to_string host and peer = Ipv4.to_string peer in
  let tags = String.concat "," tags in
  let scopes =
    match scopes with
    | Some l -> String.concat "," (List.map scope_to_string l)
    | None -> absent
  in
  let st = Idcrypto.Sign.keyed key in
  add_binding st r ~host ~peer ~nonce ~scopes tags;
  (* Addresses, hex and scope names need no validation; the caller's
     handle, tags and nonce do. *)
  let tail =
    [
      { Key_value.key = host_key; value = host };
      { key = peer_key; value = peer };
      Key_value.pair nonce_key nonce;
      { key = sig_key; value = Idcrypto.Sign.finish st };
    ]
  in
  Response.append_section r
    (Key_value.pair signer_key public
    :: Key_value.pair tags_key tags
    ::
    (if present scopes then { Key_value.key = scopes_key; value = scopes } :: tail
     else tail))

let sign ~(keypair : Idcrypto.Sign.keypair) ~host ~peer ?nonce r =
  let key = Idcrypto.Sign.prepare keypair.Idcrypto.Sign.secret in
  sign_with ~public:keypair.Idcrypto.Sign.public ~key
    ~tags:(List.map (section_tag key) r.Response.sections)
    ~host ~peer ?nonce r

type verdict = Valid of int | Unsigned | Invalid

(* Whether [bytes], a cached section's canonical encoding, holds exactly
   [section]'s covered elements. *)
let rec same_pairs bytes pos = function
  | [] -> pos = String.length bytes
  | (p : Key_value.pair) :: rest ->
      let pos = Idcrypto.Sign.element_at bytes pos p.key in
      let pos = Idcrypto.Sign.element_at bytes pos p.value in
      pos >= 0 && same_pairs bytes pos rest

let same_section bytes section =
  same_pairs bytes (Idcrypto.Sign.element_at bytes 0 section_domain) section

(* A static section checks against its tag, the slice [pos, stop) of
   [tags]: a cached copy of the tag must carry the same bytes; otherwise
   the tag is computed, and cached when it verifies. *)
let section_ok ks ~public tags pos stop section =
  match Idcrypto.Sign.cached_section ks ~public tags pos (stop - pos) with
  | "" -> (
      let tag = String.sub tags pos (stop - pos) in
      match Idcrypto.Sign.verifier ks ~public with
      | None -> false
      | Some st ->
          Idcrypto.Sign.add st section_domain;
          add_pairs st section;
          Idcrypto.Sign.matches_short st ~signature:tag
          && begin
               Idcrypto.Sign.cache_section ks ~public ~tag
                 (section_domain
                 :: List.concat_map
                      (fun (p : Key_value.pair) -> [ p.key; p.value ])
                      section);
               true
             end)
  | bytes -> same_section bytes section

(* Whether the tag list names exactly the [n] covered sections and every
   static one checks. *)
let rec statics_ok ks ~public tags pos n sections =
  if n = 0 then pos = String.length tags + 1 || (pos = 0 && tags = "")
  else
    match sections with
    | section :: rest when pos <= String.length tags ->
        let stop = field_end tags pos in
        (is_per_flow tags pos stop || section_ok ks ~public tags pos stop section)
        && statics_ok ks ~public tags (stop + 1) (n - 1) rest
    | _ -> false

type field =
  | Signer_key
  | Sig_key
  | Tags_key
  | Host_key
  | Peer_key
  | Nonce_key
  | Scopes_key
  | Other_key

(* The signature-section field a key names. The length, between 12 and
   15 for every field, settles most keys without a comparison. *)
let field k =
  match String.length k with
  | 12 -> if String.equal k sig_key then Sig_key else Other_key
  | 13 ->
      if String.equal k tags_key then Tags_key
      else if String.equal k host_key then Host_key
      else if String.equal k peer_key then Peer_key
      else Other_key
  | 14 -> if String.equal k nonce_key then Nonce_key else Other_key
  | 15 ->
      if String.equal k signer_key then Signer_key
      else if String.equal k scopes_key then Scopes_key
      else Other_key
  | _ -> Other_key

(* Whether the section carries both a signer and a tag. *)
let rec is_signature ~signer ~signature = function
  | [] -> signer && signature
  | (p : Key_value.pair) :: rest -> (
      match field p.key with
      | Signer_key -> is_signature ~signer:true ~signature rest
      | Sig_key -> is_signature ~signer ~signature:true rest
      | _ -> is_signature ~signer ~signature rest)

(* The first signature section: the [covered] sections before it, the
   sections [after] it, and the last binding of each field, {!absent}
   where it has none. The fields are set once, while it is read. *)
type signature = {
  covered : int;
  after : Key_value.section list;
  mutable signer : string;
  mutable signature : string;
  mutable tags : string;
  mutable host : string;
  mutable peer : string;
  mutable nonce : string;
  mutable scopes : string;
}

let rec read_fields sg = function
  | [] -> sg
  | (p : Key_value.pair) :: rest ->
      let v = p.value in
      (match field p.key with
      | Signer_key -> sg.signer <- v
      | Sig_key -> sg.signature <- v
      | Tags_key -> sg.tags <- v
      | Host_key -> sg.host <- v
      | Peer_key -> sg.peer <- v
      | Nonce_key -> sg.nonce <- v
      | Scopes_key -> sg.scopes <- v
      | Other_key -> ());
      read_fields sg rest

let rec find_signature covered = function
  | [] -> None
  | section :: after when is_signature ~signer:false ~signature:false section ->
      Some
        (read_fields
           {
             covered;
             after;
             signer = absent;
             signature = absent;
             tags = absent;
             host = absent;
             peer = absent;
             nonce = absent;
             scopes = absent;
           }
           section)
  | _ :: after -> find_signature (covered + 1) after

let signature (r : Response.t) = find_signature 0 r.Response.sections

let check ks (r : Response.t) = function
  | None -> Unsigned
  | Some sg ->
      if
        not
          (present sg.tags && present sg.host && present sg.peer
         && present sg.nonce)
      then Invalid
      else (
        match Idcrypto.Sign.verifier ks ~public:sg.signer with
        | None -> Invalid
        | Some st ->
            add_binding st r ~host:sg.host ~peer:sg.peer ~nonce:sg.nonce
              ~scopes:sg.scopes sg.tags;
            if
              Idcrypto.Sign.matches st ~signature:sg.signature
              && statics_ok ks ~public:sg.signer sg.tags 0 sg.covered
                   r.Response.sections
            then Valid sg.covered
            else Invalid)

let verify keystore r = check keystore r (signature r)

let signer (sg : signature) = sg.signer

let echoes (sg : signature) ~host ~peer ~nonce =
  Ipv4.is_text host sg.host
  && Ipv4.is_text peer sg.peer
  && match nonce with Some n -> String.equal n sg.nonce | None -> false

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

(* The narrowest of the [n] fields of [scopes] from [pos] on, or [Flow]
   when the list does not name exactly [n] known scopes. *)
let rec narrowest scopes pos n acc =
  if pos > String.length scopes then if n = 0 then acc else Flow
  else if n = 0 then Flow
  else
    let stop = field_end scopes pos in
    match scope_at scopes pos stop with
    | None -> Flow
    | Some s -> narrowest scopes (stop + 1) (n - 1) (narrower acc s)

(* The first signature section must be the last section, and declare
   one scope per section before it. *)
let scope_of = function
  | Some ({ after = []; _ } as sg) when sg.covered > 0 && present sg.scopes ->
      narrowest sg.scopes 0 sg.covered Host
  | Some _ | None -> Flow

let scope r = scope_of (signature r)
