type t =
  | Word of string
  | Str of string
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
  | Star_at

type located = { token : t; line : int }

let to_string = function
  | Word w -> w
  | Str s -> Printf.sprintf "%S" s
  | Lbrace -> "{"
  | Rbrace -> "}"
  | Langle -> "<"
  | Rangle -> ">"
  | Lparen -> "("
  | Rparen -> ")"
  | Lbracket -> "["
  | Rbracket -> "]"
  | Comma -> ","
  | Colon -> ":"
  | Equals -> "="
  | Bang -> "!"
  | Dollar -> "$"
  | At -> "@"
  | Star_at -> "*@"
