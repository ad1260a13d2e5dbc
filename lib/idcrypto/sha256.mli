(** SHA-256 (FIPS 180-4), implemented from scratch. The block
    compression is a small portable C stub; streaming, padding and
    finalization are OCaml. The sealed build environment has no crypto
    packages; this module is the hashing substrate for ident++
    signatures (see DESIGN.md §2). *)

type ctx
(** A streaming hash context. *)

val init : unit -> ctx

val feed : ctx -> string -> unit
(** Absorb bytes. May be called repeatedly. *)

val feed_bytes : ctx -> Bytes.t -> int -> int -> unit
(** [feed_bytes ctx b off len] absorbs a slice. Whole 64-byte blocks are
    hashed in place, without a copy. Raises [Invalid_argument], leaving
    [ctx] untouched, when the slice is not inside [b]. *)

val finalize : ctx -> string
(** The 32-byte digest. The context must not be reused afterwards. *)

val finalize_into : ctx -> Bytes.t -> unit
(** {!finalize} into the first 32 bytes of a buffer, allocating nothing.
    Raises [Invalid_argument] when the buffer is shorter. *)

(** {2 Midstates}

    A hash of a fixed prefix, saved after whole blocks so that many
    messages sharing the prefix skip re-hashing it (HMAC's keyed pads). *)

type midstate
(** Eight chaining words and the byte count they cover. *)

val midstate : ctx -> midstate
(** The state after everything fed so far. Raises [Invalid_argument]
    unless a whole number of 64-byte blocks has been fed. The context
    stays usable. *)

val resume : midstate -> ctx
(** A fresh context that continues from the midstate. *)

val restart : ctx -> midstate -> unit
(** Reset [ctx] in place to continue from the midstate, discarding what
    it held: {!resume} without allocating a context. *)

val digest : string -> string
(** One-shot hash: 32 raw bytes. *)

val hexdigest : string -> string
(** One-shot hash, hex-encoded (64 characters). *)

val digest_size : int
(** 32. *)

val block_size : int
(** 64. *)
