(** The lists [member] and [includes] read (§3.3), in two forms:

    - a {e list spec}, [member]'s second argument: ["{ http ssh }"] or a
      bare word, items separated by blanks and commas inside optional
      enclosing braces;
    - a {e multi-value}, such as an answer's ["a,b"] or a [*@] access's
      comma-joined values: items separated by commas.

    Either way each item is trimmed and empty items are dropped. A list
    the policy writes is split once ({!of_spec}, {!of_multi}); a value
    read off an answer is walked in place, allocating nothing. *)

type t
(** A list's items, split once. *)

val of_spec : string -> t
val of_multi : string -> t

val to_list : t -> string list
(** The items, sorted, without duplicates. *)

val mem : t -> string -> bool

val any_in : string -> t -> bool
(** [any_in v t]: some item of the multi-value [v] is in [t]. *)

val any_in_spec : string -> string -> bool
(** [any_in_spec v spec]: some item of the multi-value [v] is an item of
    the list spec [spec]; [any_in v (of_spec spec)] without splitting
    [spec]. *)

val has : string -> string -> bool
(** [has v x]: [x] is an item of the multi-value [v]; [mem (of_multi v) x]
    without splitting [v]. *)
