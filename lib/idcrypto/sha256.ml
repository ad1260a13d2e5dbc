(* SHA-256 per FIPS 180-4. The block compression is a C stub
   (sha256_stubs.c); streaming, padding and bounds checks live here. The
   8 chaining words sit in the low 32 bits of native ints. *)

(* Absorb the 64 bytes of [b] at [off] into the state; unchecked. *)
external compress : int array -> Bytes.t -> int -> unit
  = "idcrypto_sha256_compress"
[@@noalloc]

type ctx = {
  h : int array; (* 8 state words *)
  block : Bytes.t; (* 64-byte block buffer *)
  mutable fill : int; (* bytes pending in [block] *)
  mutable total : int; (* total bytes absorbed *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    block = Bytes.create 64;
    fill = 0;
    total = 0;
  }

(* Compress whole blocks straight from [b]; the tail under 64 bytes goes
   to [ctx.block], which must be empty. *)
let rec absorb ctx b off len =
  if len >= 64 then begin
    compress ctx.h b off;
    absorb ctx b (off + 64) (len - 64)
  end
  else if len > 0 then begin
    Bytes.blit b off ctx.block 0 len;
    ctx.fill <- len
  end

let feed_bytes ctx b off len =
  (* [off + len] could wrap; [Bytes.length b - off] cannot once [off >= 0]. *)
  if off < 0 || len < 0 || len > Bytes.length b - off then
    invalid_arg "Sha256.feed_bytes: out of bounds";
  ctx.total <- ctx.total + len;
  if ctx.fill = 0 then absorb ctx b off len
  else begin
    let chunk = min (64 - ctx.fill) len in
    Bytes.blit b off ctx.block ctx.fill chunk;
    ctx.fill <- ctx.fill + chunk;
    if ctx.fill = 64 then begin
      compress ctx.h ctx.block 0;
      ctx.fill <- 0;
      absorb ctx b (off + chunk) (len - chunk)
    end
  end

let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let finalize_into ctx out =
  if Bytes.length out < 32 then invalid_arg "Sha256.finalize_into: short buffer";
  let bitlen = ctx.total * 8 in
  (* Append 0x80, pad with zeros to 56 mod 64, then the 64-bit length. *)
  Bytes.set ctx.block ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > 56 then begin
    Bytes.fill ctx.block ctx.fill (64 - ctx.fill) '\000';
    compress ctx.h ctx.block 0;
    ctx.fill <- 0
  end;
  Bytes.fill ctx.block ctx.fill (64 - ctx.fill) '\000';
  for i = 0 to 7 do
    Bytes.set ctx.block (56 + i) (Char.chr ((bitlen lsr ((7 - i) * 8)) land 0xff))
  done;
  compress ctx.h ctx.block 0;
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xff))
  done

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out;
  Bytes.unsafe_to_string out

type midstate = { words : int array; length : int }

let midstate ctx =
  if ctx.fill <> 0 then invalid_arg "Sha256.midstate: partial block pending";
  { words = Array.copy ctx.h; length = ctx.total }

let resume m =
  { h = Array.copy m.words; block = Bytes.create 64; fill = 0; total = m.length }

let restart ctx m =
  Array.blit m.words 0 ctx.h 0 8;
  ctx.fill <- 0;
  ctx.total <- m.length

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let hexdigest s = Hex.encode (digest s)
let digest_size = 32
let block_size = 64
