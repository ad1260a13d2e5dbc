(** A minimal JSON value type with an emitter and a parser.

    The observability exporters ({!Export}) emit JSON snapshots, the
    span collector ({!Span}) emits JSON event streams, and the
    [identxx_ctl metrics] command reads them back — so the repository
    needs one JSON implementation that round-trips its own output.
    This is that implementation: no external dependencies, UTF-8
    pass-through, deterministic field order (whatever the caller
    built). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** [pretty] (default [false]) adds newlines and two-space indentation.
    Numbers that are exact integers of magnitude below [1e15] print
    without a decimal point; other numbers print with enough digits to
    round-trip. *)

val of_string : string -> (t, string) result
(** Strict parser for the JSON this module emits (and standard JSON
    generally): objects, arrays, strings with the standard escapes
    (including [\uXXXX], decoded to UTF-8), numbers, [true], [false],
    [null]. Errors carry a byte offset. *)

(** {2 Accessors}

    All return [None] (or the empty list) on a type mismatch, so schema
    walks read naturally. *)

val member : string -> t -> t option
(** First binding of the key in an object. *)

val to_list : t -> t list
val to_float : t -> float option
val to_int : t -> int option
val to_str : t -> string option
