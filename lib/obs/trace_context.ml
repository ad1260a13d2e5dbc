(* Deterministic ids: netsim traces must be byte-reproducible, so ids
   are derived by hashing the caller's seed (the flow 5-tuple) and a
   per-run sequence number — no Random, no clock. FNV-1a is enough for
   distribution here; these ids need to be unique within a run and
   stable across runs, not adversary-resistant. *)

type t = { trace_id : string; span_id : string; sampled : bool }

let fnv_offset = 0x811c9dc5
let fnv_prime = 0x01000193

let fnv1a basis s =
  let h = ref basis in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * fnv_prime land 0xffffffff)
    s;
  !h

(* Two independent 32-bit lanes (different bases) make the 64-bit trace
   id; a single lane makes the 32-bit span id. *)
let hash64 s =
  Printf.sprintf "%08x%08x" (fnv1a fnv_offset s)
    (fnv1a (fnv_offset lxor 0x5bd1e995) s)

let hash32 s = Printf.sprintf "%08x" (fnv1a fnv_offset s)

let make ~seed ~seq ~sampled =
  let material = Printf.sprintf "%s#%d" seed seq in
  { trace_id = hash64 material; span_id = hash32 ("root:" ^ material); sampled }

let child t n =
  { t with span_id = hash32 (Printf.sprintf "%s:%s:%d" t.trace_id t.span_id n) }

let unit_fraction id = float_of_int (fnv1a fnv_offset id) /. 4294967296.

let to_string t =
  Printf.sprintf "%s-%s-%c" t.trace_id t.span_id (if t.sampled then 's' else 'n')

let is_hex s =
  String.for_all (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false) s

let of_string s =
  match String.split_on_char '-' s with
  | [ trace_id; span_id; flag ]
    when String.length trace_id = 16
         && is_hex trace_id
         && String.length span_id = 8
         && is_hex span_id
         && (flag = "s" || flag = "n") ->
      Some { trace_id; span_id; sampled = flag = "s" }
  | _ -> None
