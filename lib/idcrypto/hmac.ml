let normalize_key key =
  let key =
    if String.length key > Sha256.block_size then Sha256.digest key else key
  in
  let b = Bytes.make Sha256.block_size '\000' in
  Bytes.blit_string key 0 b 0 (String.length key);
  Bytes.unsafe_to_string b

let xor_with s byte =
  String.map (fun c -> Char.chr (Char.code c lxor byte)) s

(* The inner hash, already keyed, and the outer pad it is wrapped in. *)
type ctx = { inner : Sha256.ctx; opad : string }

let init ~key =
  let key = normalize_key key in
  let inner = Sha256.init () in
  Sha256.feed inner (xor_with key 0x36);
  { inner; opad = xor_with key 0x5c }

let feed t s = Sha256.feed t.inner s
let feed_bytes t b off len = Sha256.feed_bytes t.inner b off len

let finalize t =
  let inner_digest = Sha256.finalize t.inner in
  let outer = Sha256.init () in
  Sha256.feed outer t.opad;
  Sha256.feed outer inner_digest;
  Sha256.finalize outer

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
