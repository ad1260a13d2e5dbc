(** Response authentication.

    ident++ responses travel through the network with a spoofable source
    address, and §5.3 already leans on signatures for authenticating
    delegated requests ("the request needs to be signed with the user's
    private key"). This module extends the same mechanism to whole
    responses: a daemon holding a keypair appends a final section

    {v
response-signer: <public handle>
response-sig: <tag over the preceding sections and the flow>
    v}

    and a verifier checks the tag against its keystore. Sections a
    transit controller appends {e after} the signature are visible but
    unauthenticated — in a fully-signed deployment each augmenting
    controller would add its own signature section the same way. *)

val signer_key : string
(** ["response-signer"] *)

val sig_key : string
(** ["response-sig"] *)

val sign : keypair:Idcrypto.Sign.keypair -> Response.t -> Response.t
(** Append the signature section. The tag covers the flow's
    protocol/ports and every section already present. *)

val sign_with :
  public:string -> key:Idcrypto.Hmac.key -> Response.t -> Response.t
(** [sign ~keypair] for a signer holding its secret prepared once:
    [public] is the keypair's handle, [key] its prepared secret. *)

type verdict =
  | Valid of int  (** Number of sections covered by the signature. *)
  | Unsigned
  | Invalid

val verify : Idcrypto.Sign.keystore -> Response.t -> verdict
(** Find the first signature section and check its tag over the
    sections preceding it. [Invalid] when the signer is unknown to the
    keystore or the tag does not match. *)
