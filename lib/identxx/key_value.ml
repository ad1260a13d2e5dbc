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

let pp_pair ppf p = Format.fprintf ppf "%s: %s" p.key p.value

let pp_section ppf s =
  List.iter (fun p -> Format.fprintf ppf "%a@." pp_pair p) s
