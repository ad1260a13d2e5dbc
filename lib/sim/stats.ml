type t = {
  mutable values : float array; (* insertion order, append-only *)
  mutable len : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable sorted : float array;
      (* A sorted copy of values[0..sorted_len): percentile queries sort
         only the suffix added since the last query and merge it in, so
         interleaved add/percentile costs O(new log new + n) per query
         instead of re-sorting the whole sample every time. *)
  mutable sorted_len : int;
}

let create () =
  {
    values = [||];
    len = 0;
    mean = 0.0;
    m2 = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
    sorted = [||];
    sorted_len = 0;
  }

let add t x =
  if t.len = Array.length t.values then begin
    let ncap = if t.len = 0 then 64 else t.len * 2 in
    let nv = Array.make ncap 0.0 in
    Array.blit t.values 0 nv 0 t.len;
    t.values <- nv
  end;
  t.values.(t.len) <- x;
  t.len <- t.len + 1;
  (* Welford's online update. *)
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.len);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.len
let mean t = if t.len = 0 then 0.0 else t.mean
let variance t = if t.len < 2 then 0.0 else t.m2 /. float_of_int (t.len - 1)
let min_value t = t.min_v
let max_value t = t.max_v

let ensure_sorted t =
  if t.sorted_len < t.len then begin
    let fresh = Array.sub t.values t.sorted_len (t.len - t.sorted_len) in
    Array.sort Float.compare fresh;
    let nfresh = Array.length fresh in
    let merged = Array.make t.len 0.0 in
    let i = ref 0 and j = ref 0 in
    for k = 0 to t.len - 1 do
      if
        !i < t.sorted_len
        && (!j >= nfresh || Float.compare t.sorted.(!i) fresh.(!j) <= 0)
      then begin
        merged.(k) <- t.sorted.(!i);
        incr i
      end
      else begin
        merged.(k) <- fresh.(!j);
        incr j
      end
    done;
    t.sorted <- merged;
    t.sorted_len <- t.len
  end

let percentile t p =
  if t.len = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: bad percentile";
  ensure_sorted t;
  let rank =
    int_of_float (ceil (p /. 100.0 *. float_of_int t.len)) - 1
  in
  t.sorted.(Stdlib.max 0 (Stdlib.min (t.len - 1) rank))

let median t = percentile t 50.0
