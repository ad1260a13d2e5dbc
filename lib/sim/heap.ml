(* A slot past [len] holds [Empty], so a removed value is not kept
   alive by the array. *)
type 'a entry = Empty | E of { key : int; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { data = [||]; len = 0; next_seq = 0 }
let is_empty h = h.len = 0
let size h = h.len

let less a b =
  match (a, b) with
  | E a, E b -> a.key < b.key || (a.key = b.key && a.seq < b.seq)
  | _ -> invalid_arg "Heap: empty slot inside the heap"

let grow h =
  let cap = Array.length h.data in
  if h.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nd = Array.make ncap Empty in
    Array.blit h.data 0 nd 0 h.len;
    h.data <- nd
  end

let push h ~key value =
  let entry = E { key; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  grow h;
  h.data.(h.len) <- entry;
  h.len <- h.len + 1;
  (* sift up *)
  let i = ref (h.len - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less h.data.(!i) h.data.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = h.data.(parent) in
    h.data.(parent) <- h.data.(!i);
    h.data.(!i) <- tmp;
    i := parent
  done

let min_key h =
  if h.len = 0 then invalid_arg "Heap.min_key: empty heap";
  match h.data.(0) with E e -> e.key | Empty -> assert false

let take h =
  if h.len = 0 then invalid_arg "Heap.take: empty heap";
  let top = h.data.(0) in
  h.len <- h.len - 1;
  h.data.(0) <- h.data.(h.len);
  h.data.(h.len) <- Empty;
  if h.len > 0 then begin
    (* sift down *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && less h.data.(l) h.data.(!smallest) then smallest := l;
      if r < h.len && less h.data.(r) h.data.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = h.data.(!smallest) in
        h.data.(!smallest) <- h.data.(!i);
        h.data.(!i) <- tmp;
        i := !smallest
      end
    done
  end;
  match top with E e -> e.value | Empty -> assert false

let pop h =
  if h.len = 0 then None
  else
    let key = min_key h in
    Some (key, take h)

let clear h =
  h.data <- [||];
  h.len <- 0
