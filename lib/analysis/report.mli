(** Rendering of {!Check} findings for humans (text) and machines
    (JSON), with lines in the concatenated ruleset mapped back to the
    contributing [.control] file. *)

type located = { file : string; local_line : int; finding : Check.finding }
(** [file = ""] (and [local_line = 0]) for whole-ruleset findings. *)

val locate : (int -> string * int) -> Check.finding list -> located list
(** [locate loc findings] places each finding with [loc], which maps a
    line of the concatenation to its file and the file's own line
    (the policy store's [locate]). *)

val text_line : located -> string
val to_json : located list -> string

val exit_code : Check.finding list -> int
(** 1 iff any error-severity finding; warnings and info exit 0. *)
