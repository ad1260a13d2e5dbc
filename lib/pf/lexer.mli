(** The PF+=2 lexer. Newlines are whitespace (rules are delimited by
    their grammar, which lets one daemon-supplied [requirements] value
    hold several rules on one line, as in Figure 3); [#] starts a
    comment; a backslash before a newline is the PF line-continuation
    and is skipped. *)

val tokenize : ?first_line:int -> string -> (Token.located list, string) result
(** Tokens carry their line, counted from [first_line] (default 1), and
    errors mention the offending one. *)
