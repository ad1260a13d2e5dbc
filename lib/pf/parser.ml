open Netcore

type state = { tokens : Token.located array; mutable pos : int }

exception Parse_error of string

let fail st fmt =
  let line =
    if st.pos < Array.length st.tokens then st.tokens.(st.pos).Token.line
    else if Array.length st.tokens > 0 then
      st.tokens.(Array.length st.tokens - 1).Token.line
    else 1
  in
  Format.kasprintf (fun msg -> raise (Parse_error (Printf.sprintf "line %d: %s" line msg))) fmt

let peek st =
  if st.pos < Array.length st.tokens then Some st.tokens.(st.pos).Token.token
  else None

let peek2 st =
  if st.pos + 1 < Array.length st.tokens then
    Some st.tokens.(st.pos + 1).Token.token
  else None

let current_line st =
  if st.pos < Array.length st.tokens then st.tokens.(st.pos).Token.line else 0

let advance st = st.pos <- st.pos + 1

let expect st tok what =
  match peek st with
  | Some t when t = tok -> advance st
  | Some t -> fail st "expected %s, found %s" what (Token.to_string t)
  | None -> fail st "expected %s, found end of input" what

let expect_word st what =
  match peek st with
  | Some (Token.Word w) ->
      advance st;
      w
  | Some t -> fail st "expected %s, found %s" what (Token.to_string t)
  | None -> fail st "expected %s, found end of input" what

(* <name> *)
let angle_name st =
  expect st Token.Langle "'<'";
  let name = expect_word st "a name" in
  expect st Token.Rangle "'>'";
  name

let parse_table_items st =
  expect st Token.Lbrace "'{'";
  let rec go acc =
    match peek st with
    | Some Token.Rbrace ->
        advance st;
        List.rev acc
    | Some Token.Langle -> go (Ast.Item_ref (angle_name st) :: acc)
    | Some (Token.Word w) -> (
        advance st;
        match Prefix.of_string_opt w with
        | Some p -> go (Ast.Item_prefix p :: acc)
        | None -> fail st "bad address or prefix in table: %s" w)
    | Some Token.Comma ->
        advance st;
        go acc
    | Some t -> fail st "unexpected %s in table" (Token.to_string t)
    | None -> fail st "unterminated table"
  in
  go []

let parse_dict_entries st =
  expect st Token.Lbrace "'{'";
  let rec go acc =
    match peek st with
    | Some Token.Rbrace ->
        advance st;
        List.rev acc
    | Some (Token.Word key) -> (
        advance st;
        expect st Token.Colon "':'";
        match peek st with
        | Some (Token.Word v) ->
            advance st;
            go ((key, v) :: acc)
        | Some (Token.Str v) ->
            advance st;
            go ((key, v) :: acc)
        | Some t -> fail st "bad dict value: %s" (Token.to_string t)
        | None -> fail st "unterminated dict")
    | Some Token.Comma ->
        advance st;
        go acc
    | Some t -> fail st "unexpected %s in dict" (Token.to_string t)
    | None -> fail st "unterminated dict"
  in
  go []

(* @src[key], *@src[key], @pubkeys[key], $macro, literal *)
let parse_arg st =
  match peek st with
  | Some Token.At | Some Token.Star_at ->
      let star = peek st = Some Token.Star_at in
      advance st;
      let dict = expect_word st "a dictionary name after '@'" in
      expect st Token.Lbracket "'['";
      let key = expect_word st "a key" in
      expect st Token.Rbracket "']'";
      Ast.Dict_access { star; dict; key }
  | Some Token.Dollar ->
      advance st;
      Ast.Macro_ref (expect_word st "a macro name after '$'")
  | Some (Token.Word w) ->
      advance st;
      Ast.Lit w
  | Some (Token.Str s) ->
      advance st;
      Ast.Lit s
  | Some t -> fail st "bad function argument: %s" (Token.to_string t)
  | None -> fail st "bad function argument: end of input"

let parse_funcall st =
  let fname = expect_word st "a function name after 'with'" in
  expect st Token.Lparen "'('";
  let rec args acc =
    match peek st with
    | Some Token.Rparen ->
        advance st;
        List.rev acc
    | Some Token.Comma ->
        advance st;
        args acc
    | Some _ -> args (parse_arg st :: acc)
    | None -> fail st "unterminated function call %s" fname
  in
  { Ast.fname; args = args [] }

(* [!] (any | <table> | prefix) *)
let parse_addr_spec st =
  let negated =
    match peek st with
    | Some Token.Bang ->
        advance st;
        true
    | _ -> false
  in
  match peek st with
  | Some (Token.Word "any") ->
      advance st;
      { Ast.negated; addr = Ast.Addr_any }
  | Some Token.Langle -> { Ast.negated; addr = Ast.Addr_table (angle_name st) }
  | Some Token.Lbrace ->
      advance st;
      let rec items acc =
        match peek st with
        | Some Token.Rbrace ->
            advance st;
            List.rev acc
        | Some Token.Comma ->
            advance st;
            items acc
        | Some (Token.Word w) -> (
            advance st;
            match Prefix.of_string_opt w with
            | Some p -> items (p :: acc)
            | None -> fail st "bad address in list: %s" w)
        | Some t -> fail st "unexpected %s in address list" (Token.to_string t)
        | None -> fail st "unterminated address list"
      in
      (match items [] with
      | [] -> fail st "empty address list"
      | prefixes -> { Ast.negated; addr = Ast.Addr_list prefixes })
  | Some (Token.Word w) -> (
      advance st;
      match Prefix.of_string_opt w with
      | Some p -> { Ast.negated; addr = Ast.Addr_prefix p }
      | None -> fail st "bad address: %s" w)
  | Some t -> fail st "expected an address, found %s" (Token.to_string t)
  | None -> fail st "expected an address, found end of input"

(* Endpoint after from/to: [addr_spec] [port X]. *)
let parse_endpoint st =
  let addr =
    match peek st with
    | Some (Token.Word "port") -> None
    | Some (Token.Word _) | Some Token.Langle | Some Token.Bang
    | Some Token.Lbrace ->
        Some (parse_addr_spec st)
    | _ -> None
  in
  let port =
    match peek st with
    | Some (Token.Word "port") -> (
        advance st;
        let w = expect_word st "a port number or service name" in
        let parse p =
          match Services.parse_port p with
          | Ok p -> p
          | Error e -> fail st "%s" e
        in
        (* PF range syntax lexes as a single word "8000:8080"?  No — ':'
           is a token, so a range arrives as Word Colon Word. *)
        let lo = parse w in
        match peek st with
        | Some Token.Colon -> (
            advance st;
            let hi = parse (expect_word st "the upper port of the range") in
            if hi < lo then
              fail st
                "empty port range %d:%d (lower bound exceeds upper bound; no \
                 flow can match)"
                lo hi
            else Some (Ast.Port_range (lo, hi)))
        | _ -> Some (Ast.Port_eq lo))
    | _ -> None
  in
  { Ast.addr; port }

let rule_keywords = [ "pass"; "block"; "table"; "dict"; "intercept" ]

let starts_decl st =
  match peek st with
  | Some (Token.Word w) when List.mem w rule_keywords -> true
  | Some (Token.Word _) when peek2 st = Some Token.Equals -> true
  | None -> true
  | _ -> false

let parse_rule st action =
  let line = current_line st in
  advance st;
  (* past pass/block *)
  let quick =
    match peek st with
    | Some (Token.Word "quick") ->
        advance st;
        true
    | _ -> false
  in
  let log =
    match peek st with
    | Some (Token.Word "log") ->
        advance st;
        true
    | _ -> false
  in
  let proto = ref None in
  let from_ = ref Ast.endpoint_any in
  let to_ = ref Ast.endpoint_any in
  let conds = ref [] in
  let keep_state = ref false in
  let seen_all = ref false in
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (Token.Word "all") ->
        advance st;
        seen_all := true
    | Some (Token.Word "proto") ->
        advance st;
        let w = expect_word st "a protocol after 'proto'" in
        (match Netcore.Proto.of_string_opt w with
        | Some p -> proto := Some p
        | None -> fail st "unknown protocol %s" w)
    | Some (Token.Word "from") ->
        advance st;
        from_ := parse_endpoint st
    | Some (Token.Word "to") ->
        advance st;
        to_ := parse_endpoint st
    | Some (Token.Word "with") ->
        advance st;
        conds := parse_funcall st :: !conds
    | Some (Token.Word "keep") ->
        advance st;
        let w = expect_word st "'state' after 'keep'" in
        if w <> "state" then fail st "expected 'state' after 'keep', found %s" w;
        keep_state := true
    | Some (Token.Word "quick") ->
        advance st;
        fail st "'quick' must directly follow the action"
    | _ ->
        if starts_decl st then continue := false
        else
          fail st "unexpected %s in rule"
            (match peek st with
            | Some t -> Token.to_string t
            | None -> "end of input")
  done;
  if (not !seen_all) && !from_ = Ast.endpoint_any && !to_ = Ast.endpoint_any
     && !conds = [] && !proto = None then
    fail st "rule has no match criteria (use 'all' to match everything)";
  {
    Ast.action;
    quick;
    log;
    proto = !proto;
    from_ = !from_;
    to_ = !to_;
    conds = List.rev !conds;
    keep_state = !keep_state;
    line;
  }

let parse_intercept st =
  let iline = current_line st in
  advance st;
  (* past "intercept" *)
  let kind_word = expect_word st "'query' or 'response' after 'intercept'" in
  let to_word = expect_word st "'to'" in
  if to_word <> "to" then fail st "expected 'to', found %s" to_word;
  let target = parse_addr_spec st in
  let verb = expect_word st "'answer' or 'augment'" in
  let ikind =
    match (kind_word, verb) with
    | "query", "answer" -> Ast.Answer_query
    | "response", "augment" -> Ast.Augment_response
    | "query", v -> fail st "intercept query must 'answer', found %s" v
    | "response", v -> fail st "intercept response must 'augment', found %s" v
    | k, _ -> fail st "expected 'query' or 'response' after 'intercept', found %s" k
  in
  let pairs = parse_dict_entries st in
  { Ast.ikind; target; pairs; iline }

let parse_decl st =
  match peek st with
  | Some (Token.Word "intercept") -> Ast.Intercept_def (parse_intercept st)
  | Some (Token.Word "table") ->
      advance st;
      let name = angle_name st in
      Ast.Table_def (name, parse_table_items st)
  | Some (Token.Word "dict") ->
      advance st;
      let name = angle_name st in
      Ast.Dict_def (name, parse_dict_entries st)
  | Some (Token.Word "pass") -> Ast.Rule_decl (parse_rule st Ast.Pass)
  | Some (Token.Word "block") -> Ast.Rule_decl (parse_rule st Ast.Block)
  | Some (Token.Word name) when peek2 st = Some Token.Equals ->
      advance st;
      advance st;
      (match peek st with
      | Some (Token.Str v) ->
          advance st;
          Ast.Macro_def (name, v)
      | Some (Token.Word v) ->
          advance st;
          Ast.Macro_def (name, v)
      | Some t -> fail st "bad macro value: %s" (Token.to_string t)
      | None -> fail st "bad macro definition: end of input")
  | Some t -> fail st "expected a declaration or rule, found %s" (Token.to_string t)
  | None -> fail st "expected a declaration, found end of input"

type file = {
  decls : Ast.ruleset;
  head : Token.located array;  (* the first two tokens *)
  tail : Token.located array;  (* the last declaration's tokens *)
}

let parse_file ~first_line input =
  match Lexer.tokenize ~first_line input with
  | Error e -> Error e
  | Ok tokens -> (
      let tokens = Array.of_list tokens in
      let n = Array.length tokens in
      let st = { tokens; pos = 0 } in
      let rec go acc last =
        if st.pos >= n then (List.rev acc, last)
        else
          let start = st.pos in
          go (parse_decl st :: acc) start
      in
      match go [] n with
      | decls, last ->
          Ok
            {
              decls;
              head = Array.sub tokens 0 (min 2 n);
              tail = Array.sub tokens last (n - last);
            }
      | exception Parse_error msg -> Error msg)

let parse input = Result.map (fun f -> f.decls) (parse_file ~first_line:1 input)

(* Whether [a]'s last declaration, read on into [b]'s first tokens,
   ends where [b] starts, as it does at the end of [a] alone. The
   parser looks at most two tokens past a declaration's end. *)
let ends_before a b =
  Array.length a.tail = 0
  ||
  let st = { tokens = Array.append a.tail b.head; pos = 0 } in
  match parse_decl st with
  | _ -> st.pos = Array.length a.tail
  | exception Parse_error _ -> false

let joined files =
  let rec clean prev = function
    | [] -> true
    | f :: rest when Array.length f.head = 0 -> clean prev rest
    | f :: rest -> (
        match prev with
        | Some p when not (ends_before p f) -> false
        | _ -> clean (Some f) rest)
  in
  if clean None files then Some (List.concat_map (fun f -> f.decls) files)
  else None

let parse_rules input =
  match parse input with
  | Error _ as e -> e
  | Ok decls ->
      let rec extract acc = function
        | [] -> Ok (List.rev acc)
        | Ast.Rule_decl r :: rest -> extract (r :: acc) rest
        | (Ast.Macro_def _ | Ast.Table_def _ | Ast.Dict_def _
          | Ast.Intercept_def _)
          :: _ ->
            Error "only rules are allowed in this context"
      in
      extract [] decls
