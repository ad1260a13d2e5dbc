(** The key-value pairs carried in ident++ responses (§2, §3.2).

    Keys and values are "mostly free-form" (§2): ident++ predefines a few
    keys (user, application name, executable hash, rules) and lets
    administrators, users and application developers define their own.
    Structurally, a key must not contain [':'] or newlines, and a value
    must not contain newlines — both constraints come from the line-based
    wire format. *)

type pair = private { key : string; value : string }
(** Built only by {!pair}: every pair holds a valid key and value, so a
    renderer can write it onto the wire unchecked. *)

val pair : string -> string -> pair
(** @raise Invalid_argument when the key or value is malformed. *)

val valid_key : string -> bool
val valid_value : string -> bool

type section = pair list
(** One source's contribution: "new sections correspond to key-value
    pairs from different sources" (§3.2). *)

val find : section -> string -> string option
(** Last binding of the key within the section. *)

(** {2 Predefined keys} (§2, §3.5, Figures 3–8) *)

val user_id : string
(** ["userID"] *)

val group_id : string
(** ["groupID"] *)

val app_name : string
(** ["name"] *)

val exe_hash : string
(** ["exe-hash"] *)

val app_path : string
(** ["exe-path"] *)

val version : string
(** ["version"] *)

val requirements : string
(** ["requirements"] — user-supplied rules *)

val req_sig : string
(** ["req-sig"] *)

val rule_maker : string
(** ["rule-maker"] *)

val pid : string
(** ["pid"] — the owning process, in a daemon's built-in section. *)

val app_alias : string
(** ["app-name"] — the built-in section's alias of {!app_name}. *)

(** {2 Keys of the protocol's own sections}

    The signature section {!Signed} appends and the trace section of
    {!Response.attach_trace}; those modules name them too. *)

val response_signer : string
(** ["response-signer"] *)

val response_tags : string
(** ["response-tags"] *)

val response_scopes : string
(** ["response-scopes"] *)

val response_host : string
(** ["response-host"] *)

val response_peer : string
(** ["response-peer"] *)

val response_nonce : string
(** ["response-nonce"] *)

val response_sig : string
(** ["response-sig"] *)

val trace_id : string
(** ["trace-id"] *)

val trace_parent : string
(** ["trace-parent"] *)

val trace_spans : string
(** ["trace-spans"] *)

val is_at : string -> string -> int -> bool
(** [is_at k s pos]: whether [s] holds [k]'s bytes from [pos], compared
    eight at a time where it sits. *)

val key_of_slice : string -> int -> int -> string
(** [key_of_slice s pos len] is [String.sub s pos len], except that each
    key above — the protocol's vocabulary — is its shared constant
    rather than a copy: decoders allocate no key the protocol names. *)
