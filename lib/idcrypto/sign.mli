(** Signatures over canonicalized data lists, as used by ident++'s
    [verify] policy function and [req-sig] daemon keys.

    The build environment has no public-key package, so this is a
    {e simulated PKI} (see DESIGN.md §2): a keypair is a secret plus a
    public handle derived from it, and a {!keystore} — standing in for
    the public-key trapdoor — lets a verifier check tags it could not
    itself have produced for other principals. Signing is HMAC-SHA-256
    over an unambiguous length-prefixed encoding of the data list, so the
    code paths the paper relies on (canonicalization, tag transport in
    config files, verification failure on any tampering) are all real. *)

type keypair = {
  owner : string;  (** Human-readable principal name, e.g. ["Secur"]. *)
  public : string;  (** Public handle, hex, safe to embed in policies. *)
  secret : string;  (** Signing secret; never placed in responses. *)
}

val generate : ?seed:string -> string -> keypair
(** [generate ?seed owner] derives a deterministic keypair from
    [owner] and the optional seed (deterministic keys keep simulations
    reproducible). *)

val canonical : string list -> string
(** The unambiguous byte encoding that tags are computed over:
    each element is length-prefixed, so [["ab";"c"]] and [["a";"bc"]]
    encode differently. The signing functions stream these bytes
    without building them; this function is their written spec. *)

val sign : secret:string -> string list -> string
(** Hex tag over [canonical data]. *)

(** {2 Streaming}

    The tag of {!sign} and {!verify}, computed one element at a time
    without building [canonical data]: [sign ~secret data] is
    [stream ~secret], {!add} of each element in order, then {!finish}. *)

type stream
(** A signature over the elements added so far. *)

val stream : secret:string -> stream
(** [stream ~secret] is [keyed (Hmac.prepare secret)]. *)

val keyed : Hmac.key -> stream
(** A stream under a secret prepared once with {!Hmac.prepare}, for a
    signer that tags many messages. *)

val add : stream -> string -> unit
(** Append one element: its decimal length, [':'], then its bytes — the
    same bytes {!canonical} writes for it. *)

val finish : stream -> string
(** Hex tag over the elements added. The stream must not be reused. *)

type keystore
(** Maps public handles to verification material, each secret prepared
    once when registered. *)

val keystore : unit -> keystore
val register : keystore -> keypair -> unit

val register_public : keystore -> public:string -> secret:string -> unit
(** Trust a principal by its raw material (used when loading fixtures). *)

val known : keystore -> string -> bool

val verify :
  keystore -> public:string -> signature:string -> string list -> bool
(** [verify ks ~public ~signature data] checks the tag. False when the
    handle is unknown, the tag malformed, or the data differs. *)

val verifier : keystore -> public:string -> stream option
(** A stream keyed for the principal [public] names, to be checked with
    {!matches}; [None] when the handle is unknown. *)

val matches : stream -> signature:string -> bool
(** Whether [signature] is the hex tag over the elements added (upper-
    or lower-case digits). The stream must not be reused. *)
