(* A struct of arrays: entry [i] is [keys.(i)], [seqs.(i)] and
   [vals.(i)]. [seqs] numbers insertions, and breaks ties between equal
   keys. The cells of [vals] past [len] hold [filler], so a removed
   value is not kept alive by the array. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
  filler : 'a;
}

let create filler =
  { keys = [||]; seqs = [||]; vals = [||]; len = 0; next_seq = 0; filler }

let is_empty h = h.len = 0
let size h = h.len

(* Does entry (k1, s1) come out before entry (k2, s2)? *)
let[@inline] before (k1 : int) (s1 : int) k2 s2 =
  k1 < k2 || (k1 = k2 && s1 < s2)

let grow h =
  let cap = Array.length h.keys in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let keys = Array.make ncap 0 and seqs = Array.make ncap 0 in
  let vals = Array.make ncap h.filler in
  Array.blit h.keys 0 keys 0 h.len;
  Array.blit h.seqs 0 seqs 0 h.len;
  Array.blit h.vals 0 vals 0 h.len;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

(* Sifts move a hole rather than swapping entries: each step copies one
   entry into the hole, and the moving entry is written once at the
   end. *)
let push h ~key value =
  if h.len = Array.length h.keys then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let i = ref h.len in
  h.len <- h.len + 1;
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    before key seq keys.(p) seqs.(p)
  do
    let p = (!i - 1) / 2 in
    keys.(!i) <- keys.(p);
    seqs.(!i) <- seqs.(p);
    vals.(!i) <- vals.(p);
    i := p
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  vals.(!i) <- value

let min_key h =
  if h.len = 0 then invalid_arg "Heap.min_key: empty heap";
  h.keys.(0)

let min_value h =
  if h.len = 0 then invalid_arg "Heap.min_value: empty heap";
  h.vals.(0)

let take h =
  if h.len = 0 then invalid_arg "Heap.take: empty heap";
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let top = vals.(0) in
  let n = h.len - 1 in
  h.len <- n;
  (* The last entry fills the hole left at the root. *)
  let key = keys.(n) and seq = seqs.(n) and value = vals.(n) in
  vals.(n) <- h.filler;
  if n > 0 then begin
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && before keys.(r) seqs.(r) keys.(l) seqs.(l) then r else l
        in
        if before keys.(c) seqs.(c) key seq then begin
          keys.(!i) <- keys.(c);
          seqs.(!i) <- seqs.(c);
          vals.(!i) <- vals.(c);
          i := c
        end
        else sifting := false
      end
    done;
    keys.(!i) <- key;
    seqs.(!i) <- seq;
    vals.(!i) <- value
  end;
  top

let pop h =
  if h.len = 0 then None
  else
    let key = min_key h in
    Some (key, take h)

let clear h =
  Array.fill h.vals 0 h.len h.filler;
  h.len <- 0
