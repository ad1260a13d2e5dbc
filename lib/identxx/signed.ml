open Netcore

let signer_key = "response-signer"
let tags_key = "response-tags"
let host_key = "response-host"
let peer_key = "response-peer"
let nonce_key = "response-nonce"
let sig_key = "response-sig"
let scopes_key = "response-scopes"
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

(* What a binding tag covers, streamed into [st]: the domain, the flow
   header, the answering host, its peer, the nonce, the tag list as it
   appears on the wire, the scope list when the answer declares one,
   then the pairs of every per-flow section in order. *)
let add_binding st (r : Response.t) ~host ~peer ~nonce ~scopes tags =
  Idcrypto.Sign.add st binding_domain;
  Idcrypto.Sign.add st
    (String.concat " "
       [
         Proto.to_string r.Response.proto;
         string_of_int r.Response.src_port;
         string_of_int r.Response.dst_port;
       ]);
  Idcrypto.Sign.add st host;
  Idcrypto.Sign.add st peer;
  Idcrypto.Sign.add st nonce;
  Idcrypto.Sign.add st tags;
  Option.iter (Idcrypto.Sign.add st) scopes;
  add_per_flow st tags 0 r.Response.sections

let sign_with ~public ~key ~tags ?scopes ~host ~peer ?(nonce = "-") r =
  let host = Ipv4.to_string host and peer = Ipv4.to_string peer in
  let tags = String.concat "," tags in
  let scopes =
    Option.map (fun l -> String.concat "," (List.map scope_to_string l)) scopes
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
    (match scopes with
    | Some s -> { Key_value.key = scopes_key; value = s } :: tail
    | None -> tail))

let sign ~(keypair : Idcrypto.Sign.keypair) ~host ~peer ?nonce r =
  let key = Idcrypto.Hmac.prepare keypair.Idcrypto.Sign.secret in
  sign_with ~public:keypair.Idcrypto.Sign.public ~key
    ~tags:(List.map (section_tag key) r.Response.sections)
    ~host ~peer ?nonce r

type verdict = Valid of int | Unsigned | Invalid

(* Whether [bytes], a cached section's canonical encoding, holds exactly
   [section]'s covered elements. *)
let same_section bytes section =
  let rec go pos = function
    | [] -> pos = String.length bytes
    | (p : Key_value.pair) :: rest ->
        let pos = Idcrypto.Sign.element_at bytes pos p.key in
        let pos = Idcrypto.Sign.element_at bytes pos p.value in
        pos >= 0 && go pos rest
  in
  go (Idcrypto.Sign.element_at bytes 0 section_domain) section

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

let check ks (r : Response.t) ~public ~signature n section =
  match
    ( Key_value.find section tags_key,
      Key_value.find section host_key,
      Key_value.find section peer_key,
      Key_value.find section nonce_key )
  with
  | Some tags, Some host, Some peer, Some nonce -> (
      match Idcrypto.Sign.verifier ks ~public with
      | None -> Invalid
      | Some st ->
          add_binding st r ~host ~peer ~nonce
            ~scopes:(Key_value.find section scopes_key)
            tags;
          if
            Idcrypto.Sign.matches st ~signature
            && statics_ok ks ~public tags 0 n r.Response.sections
          then Valid n
          else Invalid)
  | _ -> Invalid

let rec has key = function
  | [] -> false
  | (p : Key_value.pair) :: rest -> String.equal p.key key || has key rest

(* A signature section carries both a signer and a tag. *)
let is_signature section = has signer_key section && has sig_key section

let verify keystore (r : Response.t) =
  (* The first signature section covers the [n] sections before it. *)
  let rec find n = function
    | [] -> Unsigned
    | section :: _ when is_signature section -> (
        match
          (Key_value.find section signer_key, Key_value.find section sig_key)
        with
        | Some public, Some signature ->
            check keystore r ~public ~signature n section
        | _ -> Invalid)
    | _ :: rest -> find (n + 1) rest
  in
  find 0 r.Response.sections

type claim = { signer : string; host : string; peer : string; nonce : string }

let claim (r : Response.t) =
  match List.find_opt is_signature r.Response.sections with
  | None -> None
  | Some section -> (
      match
        ( Key_value.find section signer_key,
          Key_value.find section host_key,
          Key_value.find section peer_key,
          Key_value.find section nonce_key )
      with
      | Some signer, Some host, Some peer, Some nonce ->
          Some { signer; host; peer; nonce }
      | _ -> None)

(* The scope named by the field [pos, stop) of [scopes]; [None] for a
   name this verifier does not know. *)
let scope_at scopes pos stop =
  let is lit =
    stop - pos = String.length lit
    &&
    let rec same i =
      i >= String.length lit
      || (String.unsafe_get scopes (pos + i) = lit.[i] && same (i + 1))
    in
    same 0
  in
  if is "socket" then Some Socket
  else if is "host" then Some Host
  else if is "flow" then Some Flow
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

let scope (r : Response.t) =
  (* The first signature section must be the last section, and declare
     one scope per section before it. *)
  let rec find n = function
    | [] -> Flow
    | [ section ] when is_signature section && n > 0 -> (
        match Key_value.find section scopes_key with
        | Some scopes -> narrowest scopes 0 n Host
        | None -> Flow)
    | section :: _ when is_signature section -> Flow
    | _ :: rest -> find (n + 1) rest
  in
  find 0 r.Response.sections
