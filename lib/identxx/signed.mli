(** Response authentication.

    ident++ responses travel through the network with a spoofable source
    address, and §5.3 already leans on signatures for authenticating
    delegated requests ("the request needs to be signed with the user's
    private key"). This module extends the same mechanism to responses,
    split the way Figure 3's [req-sig] is: what does not change from
    flow to flow is signed once, and each flow carries only a short
    binding. A daemon holding a keypair appends a final section

    {v
response-signer: <public handle>
response-tags: <tag>,<tag>,-,<tag>
response-scopes: socket,socket,flow,host
response-host: <answering host's address>
response-peer: <the flow's other end>
response-nonce: <the query's nonce, or ->
response-sig: <binding tag>
    v}

    [response-tags] names one entry per preceding section. A static
    section (built-ins, [@app] config, host globals) carries its
    {e section tag}, computed once over the section alone; a per-flow
    section carries {!per_flow}. [response-scopes], when present, says
    how far each of those sections holds (see {!scope}). The binding tag
    covers the flow header, both addresses, the nonce, the tag list, the
    scope list and the per-flow sections' pairs (doc/PROTOCOL.md §6). Sections appended {e after} the
    signature are visible but unauthenticated — in a fully-signed
    deployment each augmenting controller would add its own signature
    section the same way. *)

open Netcore

val signer_key : string
(** ["response-signer"] *)

val tags_key : string
(** ["response-tags"] *)

val host_key : string
(** ["response-host"] *)

val peer_key : string
(** ["response-peer"] *)

val nonce_key : string
(** ["response-nonce"] *)

val sig_key : string
(** ["response-sig"], the binding tag. *)

val scopes_key : string
(** ["response-scopes"] *)

(** How far a section's pairs hold beyond the flow they answer:
    - [Flow]: this flow only (a connected socket's sections, run-time
      pairs, and any section with no declaration);
    - [Socket]: every new flow to the answering host's listening socket,
      named by the flow's protocol and destination port;
    - [Host]: every flow of the answering host (its global pairs). *)
type scope = Flow | Socket | Host

val scope_to_string : scope -> string
(** ["flow"], ["socket"] or ["host"]: the names [response-scopes]
    lists. *)

val per_flow : string
(** ["-"]: the tag-list entry of a section the binding tag covers
    directly. *)

val section_tag : Idcrypto.Sign.key -> Key_value.section -> string
(** The 128-bit hex tag ({!Idcrypto.Sign.finish_short}) over
    [["identxx-section"; k1; v1; ...]]. A signer computes it once per
    static section and reuses it for every flow; the binding tag, which
    covers it, is a full 256 bits. *)

val sign_with :
  public:string ->
  key:Idcrypto.Sign.key ->
  tags:string list ->
  ?scopes:scope list ->
  host:Ipv4.t ->
  peer:Ipv4.t ->
  ?nonce:string ->
  Response.t ->
  Response.t
(** Append the signature section. [tags] has one entry per section of
    the response: its {!section_tag} under [key], or {!per_flow}. [host]
    is the answering host, [peer] the flow's other end, [nonce] the
    query's (default ["-"], for a query that carried none). [scopes],
    when given, has one entry per section too and goes out as
    [response-scopes], under the binding tag. Only the binding tag is
    computed here: it streams from the per-flow sections' lines where
    they sit, and its hex is written straight into the answer's buffer.
    @raise Invalid_argument when [public], a tag or [nonce] holds a
    newline. *)

val sign :
  keypair:Idcrypto.Sign.keypair ->
  host:Ipv4.t ->
  peer:Ipv4.t ->
  ?nonce:string ->
  Response.t ->
  Response.t
(** {!sign_with} with every section static, its tag computed now. *)

val assemble :
  public:string ->
  key:Idcrypto.Sign.key ->
  host:Ipv4.t ->
  peer:Ipv4.t ->
  query:Query.t ->
  scopes:scope list ->
  Payload.part list ->
  Response.t
(** A daemon's signed answer to [query], written once: [sign_with ~tags
    ~scopes ?nonce] of the response to the query's protocol and ports
    whose sections are the parts', with the parts' tags and the query's
    nonce, without building that response first. One buffer of the exact
    length takes the header, each part's cached lines as they are and
    the signature section; the nonce is copied from where it sits in the
    query. *)

type verdict =
  | Valid of int  (** Number of sections covered by the signature. *)
  | Unsigned
  | Invalid

val verify : Idcrypto.Sign.keystore -> Response.t -> verdict
(** Find the first signature section and check it over the sections
    preceding it: the binding tag, then each static section's tag, every
    element streamed or compared where it sits in the payload. A section
    tag the keystore has already verified for this signer is confirmed
    by comparing bytes ({!Idcrypto.Sign.cached_section}); any other is
    computed, and cached when it verifies. [Invalid] when the
    signer is unknown, a field is missing, the tag list does not name
    every covered section, or any tag does not match.

    [Valid] says only that the signer vouched for these bytes. Whether
    they answer {e this} query — the echoed host, peer and nonce, and
    whether the signer may answer for that host — is the receiver's
    check ({!signer}, {!echoes}). *)

val scope : Response.t -> scope
(** How far the answer holds as a whole: the narrowest scope its
    signature section declares for the sections before it. [Flow] when
    the answer is unsigned or declares no scopes, when the list does not
    name one known scope per section, when any section follows the
    signature section, and for an answer with no section before it.
    Read it after {!verify}: only a verified answer's declaration is the
    signer's. *)

(** {2 Reading the signature section once}

    {!verify} and {!scope} each find the first signature section. A
    receiver that needs them all reads it once with {!signature} and
    asks the reading: [verify ks r] is [check ks r (signature r)] and
    [scope r] is [scope_of (signature r)]; {!signer} and {!echoes} read
    what it echoes. *)

type signature
(** The first signature section of a response — a section carrying
    both [response-signer] and [response-sig] — read as slices of the
    payload: the value of the last binding of each of its fields, where
    the section ends and how many sections precede it. *)

val signature : Response.t -> signature option
(** One pass over the payload's line starts, a word at a time; only a
    line whose key starts ["response-"] is read further. Allocates only
    the reading and a copy of the signer's handle. *)

val check : Idcrypto.Sign.keystore -> Response.t -> signature option -> verdict
(** {!verify} of the response the reading was taken from. *)

val scope_of : signature option -> scope
(** {!scope} of the response the reading was taken from. *)

val signer : signature -> string
(** The section's [response-signer]. *)

val closes : signature -> bool
(** Whether the section is the response's last, but for one trace
    section after it ({!Response.attach_trace}): a daemon answering a
    traced query appends its timings after signing. *)

val echoes :
  signature -> host:Ipv4.t -> peer:Ipv4.t -> query:Query.t option -> bool
(** Whether the section answers [query], the one sent: its
    [response-host] and [response-peer] are exactly [host]'s and
    [peer]'s dotted quads and its [response-nonce] is the nonce the
    query carried ([false] when none was sent or it carried none), each
    compared where it sits. Allocates nothing. *)
