(** Rendering of {!Check} findings for humans (text) and machines
    (JSON), mapping lines in the concatenated ruleset back to the
    contributing [.control] file. *)

val locator : (string * string) list -> int -> string * int
(** [locator files line] maps a 1-based line in
    [String.concat "\n" (List.map snd files)] to [(file, local_line)].
    [files] must be in concatenation order. *)

type located = { file : string; local_line : int; finding : Check.finding }
(** [file = ""] (and [local_line = 0]) for whole-ruleset findings. *)

val locate : (string * string) list -> Check.finding list -> located list
val text_line : located -> string
val to_json : located list -> string

val exit_code : Check.finding list -> int
(** 1 iff any error-severity finding; warnings and info exit 0. *)
