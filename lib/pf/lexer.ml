let is_word_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' | '/' | '_' | '+' -> true
  | _ -> false

let tokenize ?(first_line = 1) input =
  let len = String.length input in
  let tokens = ref [] in
  let line = ref first_line in
  let emit token = tokens := { Token.token; line = !line } :: !tokens in
  let rec go i =
    if i >= len then Ok (List.rev !tokens)
    else
      match input.[i] with
      | '\n' ->
          incr line;
          go (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '\\' ->
          (* Line continuation: skip the backslash (and the newline will
             be treated as whitespace anyway). *)
          go (i + 1)
      | '#' ->
          let rec skip j =
            if j >= len || input.[j] = '\n' then j else skip (j + 1)
          in
          go (skip i)
      | '"' ->
          let buf = Buffer.create 16 in
          let rec scan j =
            if j >= len then
              Error (Printf.sprintf "line %d: unterminated string" !line)
            else if input.[j] = '"' then begin
              emit (Token.Str (Buffer.contents buf));
              go (j + 1)
            end
            else begin
              if input.[j] = '\n' then incr line;
              Buffer.add_char buf input.[j];
              scan (j + 1)
            end
          in
          scan (i + 1)
      | '{' -> emit Token.Lbrace; go (i + 1)
      | '}' -> emit Token.Rbrace; go (i + 1)
      | '<' -> emit Token.Langle; go (i + 1)
      | '>' -> emit Token.Rangle; go (i + 1)
      | '(' -> emit Token.Lparen; go (i + 1)
      | ')' -> emit Token.Rparen; go (i + 1)
      | '[' -> emit Token.Lbracket; go (i + 1)
      | ']' -> emit Token.Rbracket; go (i + 1)
      | ',' -> emit Token.Comma; go (i + 1)
      | ':' -> emit Token.Colon; go (i + 1)
      | '=' -> emit Token.Equals; go (i + 1)
      | '!' -> emit Token.Bang; go (i + 1)
      | '$' -> emit Token.Dollar; go (i + 1)
      | '@' -> emit Token.At; go (i + 1)
      | '*' when i + 1 < len && input.[i + 1] = '@' ->
          emit Token.Star_at;
          go (i + 2)
      | c when is_word_char c ->
          let rec scan j = if j < len && is_word_char input.[j] then scan (j + 1) else j in
          let j = scan i in
          emit (Token.Word (String.sub input i (j - i)));
          go j
      | c -> Error (Printf.sprintf "line %d: unexpected character %C" !line c)
  in
  go 0
