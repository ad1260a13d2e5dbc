(* The state's 64 bits live in a byte buffer, read and written as
   unboxed integers: a draw allocates nothing. *)
type t = { state : Bytes.t }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let state = Bytes.create 8 in
  set64 state 0 (Int64.of_int seed);
  { state }

let[@inline] next64 t =
  let z = Int64.add (get64 t.state 0) 0x9E3779B97F4A7C15L in
  set64 t.state 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hex_digits = "0123456789abcdef"

let write_hex64 t b pos =
  let x = next64 t in
  for i = 0 to 15 do
    Bytes.unsafe_set b (pos + i)
      hex_digits.[Int64.to_int (Int64.shift_right_logical x (60 - (4 * i))) land 15]
  done

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free for our purposes: 62 random bits mod n has negligible
     bias for the bounds used in simulations. Keep within the native
     63-bit int range so the result is never negative. *)
  Int64.to_int (Int64.logand (next64 t) 0x3FFF_FFFF_FFFF_FFFFL) mod n

let int_range t lo hi =
  if hi < lo then invalid_arg "Prng.int_range: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  bound *. (x /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next64 t) 1L = 1L

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l = pick t (Array.of_list l)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let exponential t ~mean =
  let u = ref (float t 1.0) in
  if !u = 0.0 then u := 1e-12;
  -.mean *. log !u
