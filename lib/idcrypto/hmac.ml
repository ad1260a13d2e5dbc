(* The hash states after absorbing the key's inner and outer pads. *)
type key = { ipad : Sha256.midstate; opad : Sha256.midstate }

let prepare key =
  let key =
    if String.length key > Sha256.block_size then Sha256.digest key else key
  in
  (* The key, zero-padded to one block, XOR [byte]. *)
  let pad byte =
    let b = Bytes.make Sha256.block_size (Char.chr byte) in
    String.iteri
      (fun i c -> Bytes.set b i (Char.chr (Char.code c lxor byte)))
      key;
    let ctx = Sha256.init () in
    Sha256.feed_bytes ctx b 0 Sha256.block_size;
    Sha256.midstate ctx
  in
  { ipad = pad 0x36; opad = pad 0x5c }

(* The inner hash, already keyed, and the outer state it is wrapped in. *)
type ctx = { inner : Sha256.ctx; mutable outer : Sha256.midstate }

let start key = { inner = Sha256.resume key.ipad; outer = key.opad }

let restart t key =
  Sha256.restart t.inner key.ipad;
  t.outer <- key.opad
let init ~key = start (prepare key)
let feed t s = Sha256.feed t.inner s
let feed_bytes t b off len = Sha256.feed_bytes t.inner b off len

let finalize_into t out =
  Sha256.finalize_into t.inner out;
  (* The inner hash is done: its context hashes the outer one. *)
  Sha256.restart t.inner t.outer;
  Sha256.feed_bytes t.inner out 0 Sha256.digest_size;
  Sha256.finalize_into t.inner out

let finalize t =
  let out = Bytes.create Sha256.digest_size in
  finalize_into t out;
  Bytes.unsafe_to_string out

let check t ~tag =
  let expected = finalize t in
  if String.length tag <> String.length expected then false
  else begin
    let diff = ref 0 in
    String.iteri
      (fun i c -> diff := !diff lor (Char.code c lxor Char.code expected.[i]))
      tag;
    !diff = 0
  end

let mac ~key msg =
  let t = init ~key in
  feed t msg;
  finalize t

let hexmac ~key msg = Hex.encode (mac ~key msg)

let verify ~key ~tag msg =
  let t = init ~key in
  feed t msg;
  check t ~tag
