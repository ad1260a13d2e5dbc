(** Lexical tokens of PF+=2. *)

type t =
  | Word of string  (** Bare word: keyword, identifier, number, address… *)
  | Str of string  (** Double-quoted string (quotes stripped). *)
  | Lbrace
  | Rbrace
  | Langle
  | Rangle
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Comma
  | Colon
  | Equals
  | Bang
  | Dollar
  | At
  | Star_at  (** The [*@] concatenation accessor (§3.3). *)

type located = { token : t; line : int }

val to_string : t -> string
