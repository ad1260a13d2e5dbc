type t = int

let zero = 0

let ns n =
  if n < 0 then invalid_arg "Time.ns: negative";
  n

let us n = ns (n * 1_000)
let ms n = ns (n * 1_000_000)
let s n = ns (n * 1_000_000_000)

let of_float_s f =
  if f < 0.0 then invalid_arg "Time.of_float_s: negative";
  int_of_float (f *. 1e9 +. 0.5)

let to_ns t = t
let to_float_s t = float_of_int t /. 1e9
let to_float_us t = float_of_int t /. 1e3
let to_float_ms t = float_of_int t /. 1e6
let add a b = a + b

let sub a b =
  if b > a then invalid_arg "Time.sub: negative result";
  a - b

let min = Stdlib.min
let max = Stdlib.max
let compare = Int.compare
let equal = Int.equal
let ( + ) = add
let ( - ) = sub
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b

let pp ppf t =
  if t = 0 then Format.pp_print_string ppf "0s"
  else if t mod 1_000_000_000 = 0 then Format.fprintf ppf "%ds" (t / 1_000_000_000)
  else if t < 1_000 then Format.fprintf ppf "%dns" t
  else if t < 1_000_000 then Format.fprintf ppf "%.3gus" (to_float_us t)
  else if t < 1_000_000_000 then Format.fprintf ppf "%.3gms" (to_float_ms t)
  else Format.fprintf ppf "%.4gs" (to_float_s t)
