type pair = { key : string; value : string }

(* Whether [s] from [i] has none of CR, LF and, unless [colon_ok], ':'.
   Every pair built is checked, so this allocates nothing. *)
let rec clean_from ~colon_ok s i =
  i >= String.length s
  || (match String.unsafe_get s i with
     | '\n' | '\r' -> false
     | ':' -> colon_ok
     | _ -> true)
     && clean_from ~colon_ok s (i + 1)

let valid_key k = k <> "" && clean_from ~colon_ok:false k 0
let valid_value v = clean_from ~colon_ok:true v 0

let pair key value =
  if not (valid_key key) then invalid_arg ("Key_value.pair: bad key " ^ key);
  if not (valid_value value) then
    invalid_arg ("Key_value.pair: bad value for " ^ key);
  { key; value }

type section = pair list

let rec find_last acc key = function
  | [] -> acc
  | p :: rest ->
      find_last (if String.equal p.key key then Some p.value else acc) key rest

let find section key = find_last None key section

let user_id = "userID"
let group_id = "groupID"
let app_name = "name"
let exe_hash = "exe-hash"
let app_path = "exe-path"
let version = "version"
let requirements = "requirements"
let req_sig = "req-sig"
let rule_maker = "rule-maker"
let pid = "pid"
let app_alias = "app-name"
let response_signer = "response-signer"
let response_tags = "response-tags"
let response_scopes = "response-scopes"
let response_host = "response-host"
let response_peer = "response-peer"
let response_nonce = "response-nonce"
let response_sig = "response-sig"
let trace_id = "trace-id"
let trace_parent = "trace-parent"
let trace_spans = "trace-spans"

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* Whether [k] from [i] and [s] from [pos + i] agree up to [k]'s end:
   eight bytes at a time, the last eight overlapping the previous ones,
   when [k] has eight or more. *)
let rec same_from k s pos i =
  let len = String.length k in
  if len >= 8 then
    if i + 8 >= len then get64u k (len - 8) = get64u s (pos + len - 8)
    else get64u k i = get64u s (pos + i) && same_from k s pos (i + 8)
  else
    i >= len
    || String.unsafe_get k i = String.unsafe_get s (pos + i)
       && same_from k s pos (i + 1)

let is_at k s pos =
  pos >= 0 && pos <= String.length s - String.length k && same_from k s pos 0

(* [k] when the slice, as long as [k], is [k]; else a copy of it. *)
let shared k s pos len = if same_from k s pos 0 then k else String.sub s pos len

let shared2 a b s pos len =
  if same_from a s pos 0 then a else shared b s pos len

let shared3 a b c s pos len =
  if same_from a s pos 0 then a else shared2 b c s pos len

let key_of_slice s pos len =
  (* The protocol's keys by length. *)
  match len with
  | 3 -> shared pid s pos len
  | 4 -> shared app_name s pos len
  | 6 -> shared user_id s pos len
  | 7 -> shared3 group_id version req_sig s pos len
  | 8 ->
      if same_from app_path s pos 0 then app_path
      else shared3 app_alias exe_hash trace_id s pos len
  | 10 -> shared rule_maker s pos len
  | 11 -> shared trace_spans s pos len
  | 12 -> shared3 requirements response_sig trace_parent s pos len
  | 13 -> shared3 response_tags response_host response_peer s pos len
  | 14 -> shared response_nonce s pos len
  | 15 -> shared2 response_signer response_scopes s pos len
  | _ -> String.sub s pos len
