(** HMAC-SHA-256 (RFC 2104). *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte tag. Keys longer than the SHA-256 block
    size are hashed first, per the RFC. *)

val hexmac : key:string -> string -> string
(** Hex-encoded tag. *)

val verify : key:string -> tag:string -> string -> bool
(** Constant-time comparison of [tag] against [mac ~key msg]. *)

(** {2 Incremental}

    [mac ~key msg] is [init ~key], [feed] of [msg], then [finalize]:
    a message may be fed in any number of pieces without first being
    assembled. *)

type ctx
(** A keyed, streaming HMAC. *)

val init : key:string -> ctx
(** [init ~key] is [start (prepare key)]. *)

val feed : ctx -> string -> unit
(** Absorb bytes. May be called repeatedly. *)

val feed_bytes : ctx -> Bytes.t -> int -> int -> unit
(** [feed_bytes ctx b off len] absorbs a slice. *)

val finalize : ctx -> string
(** The 32-byte tag over everything fed. The context must not be reused
    afterwards, until {!restart}. *)

val finalize_into : ctx -> Bytes.t -> unit
(** {!finalize} into the first 32 bytes of a buffer, allocating nothing.
    Raises [Invalid_argument] when the buffer is shorter. *)

(** {2 Prepared keys}

    A signer or verifier that uses one key for many tags prepares it
    once: each tag then hashes only its message blocks and one outer
    block. *)

type key
(** A key's inner and outer pads, already absorbed into two hash
    states. *)

val prepare : string -> key
(** Keys longer than the SHA-256 block size are hashed first. *)

val start : key -> ctx
(** A fresh HMAC under the prepared key. *)

val restart : ctx -> key -> unit
(** Reset a context in place to a fresh HMAC under the prepared key,
    discarding what it held: {!start} without allocating. *)
