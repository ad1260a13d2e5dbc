type t = string array

(* [String.trim]'s blanks. *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_blanks s i j =
  if i < j && is_blank (String.unsafe_get s i) then skip_blanks s (i + 1) j
  else i

let rec drop_blanks s i j =
  if j > i && is_blank (String.unsafe_get s (j - 1)) then drop_blanks s i (j - 1)
  else j

(* The end of the item starting at [i]: the next comma (or, with
   [blanks], space) before [hi]. *)
let rec item_end ~blanks s i hi =
  if i >= hi then hi
  else
    match String.unsafe_get s i with
    | ',' -> i
    | ' ' when blanks -> i
    | _ -> item_end ~blanks s (i + 1) hi

(* Whether some item of [s] from [i] to [hi], trimmed and not empty,
   satisfies [p s a b x y z], the item being the slice [a, b). Every
   walk goes through here with a closed [p] and its operands as
   arguments, so a walk allocates nothing. *)
let rec exists ~blanks s i hi p x y z =
  i <= hi
  &&
  let stop = item_end ~blanks s i hi in
  let a = skip_blanks s i stop in
  let b = drop_blanks s a stop in
  (a < b && p s a b x y z) || exists ~blanks s (stop + 1) hi p x y z

(* A spec's items lie between its trimmed ends, inside one pair of
   enclosing braces when it has them. *)
let trimmed_lo s = skip_blanks s 0 (String.length s)
let trimmed_hi s = drop_blanks s (trimmed_lo s) (String.length s)

let braced s =
  let lo = trimmed_lo s and hi = trimmed_hi s in
  hi - lo >= 2 && s.[lo] = '{' && s.[hi - 1] = '}'

let spec_lo s = if braced s then trimmed_lo s + 1 else trimmed_lo s
let spec_hi s = if braced s then trimmed_hi s - 1 else trimmed_hi s

let sorted ~blanks s lo hi =
  let acc = ref [] in
  ignore
    (exists ~blanks s lo hi
       (fun s a b acc () () ->
         acc := String.sub s a (b - a) :: !acc;
         false)
       acc () ());
  Array.of_list (List.sort_uniq String.compare !acc)

let of_spec s = sorted ~blanks:true s (spec_lo s) (spec_hi s)
let of_multi v = sorted ~blanks:false v 0 (String.length v)
let to_list = Array.to_list

(* [String.compare] of the slice [a, b) of [s] against [x]. *)
let rec compare_slice s a b x i =
  if a + i = b then if i = String.length x then 0 else -1
  else if i = String.length x then 1
  else
    let c =
      Char.compare (String.unsafe_get s (a + i)) (String.unsafe_get x i)
    in
    if c <> 0 then c else compare_slice s a b x (i + 1)

let rec search t s a b lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let c = compare_slice s a b t.(mid) 0 in
  c = 0 || if c < 0 then search t s a b lo mid else search t s a b (mid + 1) hi

let mem_slice s a b t () () = search t s a b 0 (Array.length t)
let mem t x = mem_slice x 0 (String.length x) t () ()

(* Whether the slice [a, b) of [s] equals the slice [c, d) of [x]. *)
let rec same s a b x c d =
  if a = b then c = d
  else
    c < d
    && String.unsafe_get s a = String.unsafe_get x c
    && same s (a + 1) b x (c + 1) d

let any_in v t = exists ~blanks:false v 0 (String.length v) mem_slice t () ()

let any_in_spec v spec =
  exists ~blanks:false v 0 (String.length v)
    (fun v a b spec lo hi ->
      exists ~blanks:true spec lo hi (fun spec c d v a b -> same v a b spec c d) v a b)
    spec (spec_lo spec) (spec_hi spec)

let has v x =
  exists ~blanks:false v 0 (String.length v)
    (fun v a b x () () -> same v a b x 0 (String.length x))
    x () ()
