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
    a fresh stream, {!add} of each element in order, then the hex tag
    {!finish_into} writes. *)

type stream
(** A signature over the elements added so far. *)

type key
(** A secret prepared once ({!Hmac.prepare}) for a signer or verifier
    that tags many messages, with the one stream it tags them in. *)

val prepare : string -> key

val keyed : key -> stream
(** The key's stream, restarted for a new message. Allocates nothing: a
    key tags one message at a time, so a message must be finished before
    the next [keyed] on the same key. *)

val add : stream -> string -> unit
(** Append one element: its decimal length, [':'], then its bytes — the
    same bytes {!canonical} writes for it. *)

val add_sub : stream -> string -> int -> int -> unit
(** [add_sub st s pos len] is [add st (String.sub s pos len)], read
    where it sits. @raise Invalid_argument when the slice is out of
    bounds. *)

val begin_element : stream -> int -> unit
(** [begin_element st n] starts an element of [n] bytes: it appends the
    ["<n>:"] prefix {!add} would. The element's bytes follow through
    {!feed} and {!feed_int}, and must total [n]. Together they stream an
    element assembled from parts without building it. *)

val feed : stream -> string -> unit
(** Append raw bytes to the current element. *)

val feed_int : stream -> int -> unit
(** Append [string_of_int n]'s bytes to the current element. *)

val int_length : int -> int
(** [String.length (string_of_int n)]. *)

val finish_into : stream -> Bytes.t -> int -> unit
(** [finish_into st b pos] writes the hex tag over the elements added
    (64 lower-case digits) into [b] at [pos], allocating nothing. The
    stream must not be fed again until {!keyed} restarts it. *)

val finish_short : stream -> string
(** The first 16 bytes (128 bits) of {!finish_into}'s tag, in hex: HMAC
    truncated as RFC 2104 §5 allows, for tags that ride in every message
    and are checked against a cache more often than computed. *)

type keystore
(** Maps public handles to verification material, each secret prepared
    once when registered, and remembers sections whose tags verified
    (see {!cached_section}). *)

val keystore : unit -> keystore

val register : keystore -> keypair -> unit
(** Trust a principal. The handle is not bound to any host:
    {!answers_for} accepts it for every address. Re-registering a
    handle replaces its secret and forgets its cached sections. *)

val register_public : keystore -> public:string -> secret:string -> unit
(** {!register} by raw material (used when loading fixtures). *)

val register_for : keystore -> keypair -> hosts:string list -> unit
(** {!register}, bound to the addresses the principal may answer for
    (dotted quads, as a response echoes them). *)

val answers_for : keystore -> public:string -> string -> bool
(** Whether the principal may answer for the host: true for an unbound
    handle, false for an unknown one. *)

val signs_for : keystore -> string -> bool
(** Whether some principal is bound to the host ({!register_for}): its
    answers are expected to be signed. An unbound handle counts for no
    host. *)

val verify :
  keystore -> public:string -> signature:string -> string list -> bool
(** [verify ks ~public ~signature data] checks the tag. False when the
    handle is unknown, the tag malformed, or the data differs. *)

val verifier : keystore -> public:string -> stream option
(** The stream of the principal [public] names ({!keyed} on its key), to
    be checked with {!matches_sub}; [None] when the handle is unknown.
    Allocates nothing. *)

val matches_sub : stream -> string -> int -> int -> bool
(** [matches_sub st s pos len]: whether the slice is the hex tag over the
    elements added (upper- or lower-case digits), read where it sits.
    The stream must not be fed again until {!keyed} restarts it. *)

val matches_short_sub : stream -> string -> int -> int -> bool
(** {!matches_sub} for a {!finish_short} tag: exactly 16 bytes of
    hex. *)

(** {2 Verified sections}

    A verifier that sees the same signed data again need not hash it
    again. The keystore keeps up to {!section_capacity} entries, oldest
    out first ({!Netcore.Fifo_map}), from a tag to its signer and the
    canonical bytes the tag verified over. Its memory stays bounded by
    that capacity however often re-registering a signer drops its
    entries. A later copy of the tag is confirmed by comparing its
    elements with those bytes, which is cheaper than an HMAC. *)

val section_capacity : int
(** [4096]. *)

val cached_section : keystore -> public:string -> string -> int -> int -> string
(** [cached_section ks ~public s pos len] is the canonical bytes cached
    for signer [public] under the tag [String.sub s pos len], or [""]
    when there are none. The tag is read where it sits, so a verifier
    can look up each tag of a received list without copying it.
    Allocates nothing. *)

val cache_section : keystore -> public:string -> tag:string -> string list -> unit
(** Remember that [tag] verified, under [public]'s current secret, over
    [canonical data]. Only a verified tag may be cached. *)

val cached_sections : keystore -> int
(** Entries currently cached. *)

val element_of : string -> int -> string -> int -> int
(** [element_of bytes pos s i]: the length [n] of the element whose
    canonical encoding [bytes] holds at [pos], when [s] holds the same
    [n] bytes from [i]; [-1] otherwise (also for [pos < 0]). The element
    ends at [pos + int_length n + 1 + n]. A verifier checks a slice
    against a cached element with it without first finding where the
    slice ends. Allocates nothing. *)

val element_at_sub : string -> int -> string -> int -> int -> int
(** [element_at_sub bytes pos s dpos n] is the position just past the
    canonical encoding of [String.sub s dpos n] when [bytes] holds it at
    [pos], and [-1] otherwise (also for [pos < 0], so checks chain).
    The caller keeps the slice in bounds. Allocates nothing. *)
