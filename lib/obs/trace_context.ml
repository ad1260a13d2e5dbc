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

let rec hex_in s i stop =
  i >= stop
  || (match String.unsafe_get s i with 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
     && hex_in s (i + 1) stop

(* [to_string]'s 27 bytes: 16 hex digits, '-', 8 hex digits, '-', then
   's' or 'n'. *)
let is_text_sub s pos len =
  len = 27
  && hex_in s pos (pos + 16)
  && String.unsafe_get s (pos + 16) = '-'
  && hex_in s (pos + 17) (pos + 25)
  && String.unsafe_get s (pos + 25) = '-'
  && (match String.unsafe_get s (pos + 26) with 's' | 'n' -> true | _ -> false)

let of_sub s pos len =
  if is_text_sub s pos len then
    Some
      {
        trace_id = String.sub s pos 16;
        span_id = String.sub s (pos + 17) 8;
        sampled = String.unsafe_get s (pos + 26) = 's';
      }
  else None

let of_string s = of_sub s 0 (String.length s)
