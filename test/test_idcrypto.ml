(* Tests for the crypto substrate: official SHA-256 and HMAC vectors,
   streaming-hash properties, hex codec, and the simulated-PKI signature
   scheme behind PF+=2's verify(). *)

let check = Alcotest.check

(* --- Hex --- *)

let test_hex_roundtrip () =
  List.iter
    (fun s ->
      check Alcotest.string ("roundtrip " ^ s) s
        (Result.get_ok (Idcrypto.Hex.decode (Idcrypto.Hex.encode s))))
    [ ""; "a"; "hello"; "\x00\xff\x7f" ]

let test_hex_case_insensitive () =
  check Alcotest.string "upper case accepted" "\xde\xad"
    (Result.get_ok (Idcrypto.Hex.decode "DEAD"))

(* [spells_sub] reads a tag where it sits: digits of either case
   spelling a prefix of the bytes, nothing else. *)
let test_hex_spells () =
  let raw = "\xde\xad\xbe\xef" in
  let spells hex raw n = Idcrypto.Hex.spells_sub hex 0 (String.length hex) raw n in
  check Alcotest.bool "whole" true (spells "deadbeef" raw 4);
  check Alcotest.bool "upper case" true (spells "DEADBEEF" raw 4);
  check Alcotest.bool "prefix" true (spells "dead" raw 2);
  List.iter
    (fun (hex, n) ->
      check Alcotest.bool (Printf.sprintf "%S over %d" hex n) false
        (spells hex raw n))
    [
      ("deadbeee", 4); ("deadbe", 4); ("deadbeef00", 5); ("deadbeef", 3);
      ("deadbeeg", 4); ("dead", 4); ("", 1);
    ];
  check Alcotest.bool "nothing spells nothing" true (spells "" raw 0);
  check Alcotest.bool "a slice where it sits" true
    (Idcrypto.Hex.spells_sub "tag=dead;" 4 4 raw 2);
  check Alcotest.bool "a slice out of bounds" false
    (Idcrypto.Hex.spells_sub "dead" 2 4 raw 2)

let test_hex_rejects_bad_input () =
  List.iter
    (fun s ->
      match Idcrypto.Hex.decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ "a"; "zz"; "0g"; "abc" ];
  check Alcotest.(result string string) "names the first bad digit"
    (Error "Hex.decode: bad digit 'z'") (Idcrypto.Hex.decode "00zg")

(* --- Reference SHA-256 ---

   The plain OCaml compression the C kernel replaced, with padding done
   by building the whole padded message: an independent oracle for the
   kernel and for the streaming code around it. *)

module Ref = struct
  let mask = 0xffff_ffff

  let k =
    [|
      0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
      0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
      0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
      0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
      0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
      0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
      0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
      0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
      0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
      0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
      0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
    |]

  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

  let compress h b off =
    let w = Array.make 64 0 in
    for i = 0 to 15 do
      let o = off + (i * 4) in
      w.(i) <-
        (Char.code (Bytes.get b o) lsl 24)
        lor (Char.code (Bytes.get b (o + 1)) lsl 16)
        lor (Char.code (Bytes.get b (o + 2)) lsl 8)
        lor Char.code (Bytes.get b (o + 3))
    done;
    for i = 16 to 63 do
      let s0 =
        rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3)
      in
      let s1 =
        rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10)
      in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
    done;
    let v = Array.copy h in
    for i = 0 to 63 do
      let e = v.(4) and a = v.(0) in
      let s1 = rotr e 6 lxor rotr e 11 lxor rotr e 25 in
      let ch = e land v.(5) lxor (lnot e land v.(6)) in
      let t1 = (v.(7) + s1 + ch + k.(i) + w.(i)) land mask in
      let s0 = rotr a 2 lxor rotr a 13 lxor rotr a 22 in
      let maj = a land v.(1) lxor (a land v.(2)) lxor (v.(1) land v.(2)) in
      let t2 = (s0 + maj) land mask in
      Array.blit v 0 v 1 7;
      v.(4) <- (v.(4) + t1) land mask;
      v.(0) <- (t1 + t2) land mask
    done;
    Array.iteri (fun i x -> h.(i) <- (h.(i) + x) land mask) v

  let digest s =
    let n = String.length s in
    let padded = (((n + 8) / 64) + 1) * 64 in
    let b = Bytes.make padded '\000' in
    Bytes.blit_string s 0 b 0 n;
    Bytes.set b n '\x80';
    for i = 0 to 7 do
      Bytes.set b (padded - 1 - i) (Char.chr (((n * 8) lsr (8 * i)) land 0xff))
    done;
    let h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |]
    in
    for blk = 0 to (padded / 64) - 1 do
      compress h b (blk * 64)
    done;
    String.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xff))
end

(* --- SHA-256 (FIPS 180-4 / NIST vectors) --- *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      ^ "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (input, expected) ->
      check Alcotest.string
        (Printf.sprintf "sha256(%d bytes)" (String.length input))
        expected (Idcrypto.Sha256.hexdigest input))
    sha_vectors

let test_sha256_million_a () =
  check Alcotest.string "million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Idcrypto.Sha256.hexdigest (String.make 1_000_000 'a'))

let test_sha256_streaming_equals_oneshot () =
  let input = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  (* Feed in awkward chunk sizes crossing block boundaries. *)
  List.iter
    (fun chunk ->
      let ctx = Idcrypto.Sha256.init () in
      let rec feed off =
        if off < String.length input then begin
          let len = min chunk (String.length input - off) in
          Idcrypto.Sha256.feed ctx (String.sub input off len);
          feed (off + len)
        end
      in
      feed 0;
      check Alcotest.string
        (Printf.sprintf "chunk=%d" chunk)
        (Idcrypto.Sha256.hexdigest input)
        (Idcrypto.Hex.encode (Idcrypto.Sha256.finalize ctx)))
    [ 1; 3; 63; 64; 65; 128; 1000 ]

(* The lengths where padding changes shape: one byte short of the length
   field, exactly at it, block ends, two-block padding, and a multi-block
   message. *)
let edge_lengths = [ 0; 55; 56; 63; 64; 65; 119; 120; 1000 ]

(* Hash [msg] placed at [off] inside a larger buffer, fed in pieces that
   end at each of [cuts]. *)
let streamed_digest ~off ~cuts msg =
  let n = String.length msg in
  let buf = Bytes.make (off + n + 7) '\xa5' in
  Bytes.blit_string msg 0 buf off n;
  let ctx = Idcrypto.Sha256.init () in
  let last =
    List.fold_left
      (fun from cut ->
        Idcrypto.Sha256.feed_bytes ctx buf (off + from) (cut - from);
        cut)
      0 cuts
  in
  Idcrypto.Sha256.feed_bytes ctx buf (off + last) (n - last);
  Idcrypto.Sha256.finalize ctx

let test_sha256_edge_lengths_match_reference () =
  List.iter
    (fun n ->
      let msg = String.init n (fun i -> Char.chr ((i * 7) land 0xff)) in
      let expected = Idcrypto.Hex.encode (Ref.digest msg) in
      check Alcotest.string (Printf.sprintf "one-shot %d" n) expected
        (Idcrypto.Sha256.hexdigest msg);
      List.iter
        (fun cuts ->
          let cuts = List.filter (fun c -> c <= n) cuts in
          check Alcotest.string
            (Printf.sprintf "%d bytes at offset 3, cut at %s" n
               (String.concat "," (List.map string_of_int cuts)))
            expected
            (Idcrypto.Hex.encode (streamed_digest ~off:3 ~cuts msg)))
        [ []; [ 1 ]; [ 63 ]; [ 1; 65 ]; [ n / 2 ] ])
    edge_lengths

let prop_sha256_matches_reference =
  let gen =
    QCheck.Gen.(
      let* n = frequency [ (1, oneofl edge_lengths); (3, int_range 0 2100) ] in
      let* msg = string_size (return n) in
      let* cuts = list_size (int_range 0 4) (int_range 0 n) in
      let* off = int_range 0 40 in
      return (msg, List.sort_uniq compare cuts, (2 * off) + 1))
  in
  QCheck.Test.make ~name:"sha256 equals the reference compression" ~count:300
    (QCheck.make gen
       ~print:(fun (msg, cuts, off) ->
         Printf.sprintf "%d bytes at offset %d, cut at [%s]" (String.length msg)
           off
           (String.concat ";" (List.map string_of_int cuts))))
    (fun (msg, cuts, off) -> streamed_digest ~off ~cuts msg = Ref.digest msg)

let test_sha256_feed_bounds () =
  let ctx = Idcrypto.Sha256.init () in
  let b = Bytes.of_string "xyz" in
  List.iter
    (fun (off, len) ->
      match Idcrypto.Sha256.feed_bytes ctx b off len with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "accepted off=%d len=%d" off len)
    [ (1, max_int); (max_int, 1); (-1, 1); (0, -1); (4, 0); (2, 2) ];
  (* A rejected slice leaves the context as it was. *)
  Idcrypto.Sha256.feed ctx "abc";
  check Alcotest.string "still hashes abc" (Idcrypto.Sha256.hexdigest "abc")
    (Idcrypto.Hex.encode (Idcrypto.Sha256.finalize ctx))

let test_sha256_midstate () =
  let msg = String.init 200 (fun i -> Char.chr i) in
  let ctx = Idcrypto.Sha256.init () in
  Idcrypto.Sha256.feed ctx (String.sub msg 0 128);
  let m = Idcrypto.Sha256.midstate ctx in
  let resumed = Idcrypto.Sha256.resume m in
  Idcrypto.Sha256.feed resumed (String.sub msg 128 72);
  check Alcotest.string "resume continues the hash"
    (Idcrypto.Sha256.hexdigest msg)
    (Idcrypto.Hex.encode (Idcrypto.Sha256.finalize resumed));
  Idcrypto.Sha256.feed ctx "x";
  match Idcrypto.Sha256.midstate ctx with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "midstate taken mid-block"

let prop_sha256_streaming_split =
  QCheck.Test.make ~name:"sha256 split-feed equals one-shot" ~count:200
    QCheck.(pair string small_nat)
    (fun (s, k) ->
      let k = if String.length s = 0 then 0 else k mod (String.length s + 1) in
      let ctx = Idcrypto.Sha256.init () in
      Idcrypto.Sha256.feed ctx (String.sub s 0 k);
      Idcrypto.Sha256.feed ctx (String.sub s k (String.length s - k));
      Idcrypto.Sha256.finalize ctx = Idcrypto.Sha256.digest s)

let prop_sha256_injective_on_samples =
  QCheck.Test.make ~name:"sha256 distinguishes distinct strings" ~count:200
    QCheck.(pair string string)
    (fun (a, b) ->
      QCheck.assume (a <> b);
      Idcrypto.Sha256.digest a <> Idcrypto.Sha256.digest b)

(* --- HMAC (RFC 4231) --- *)

let test_hmac_rfc4231 () =
  (* Test case 1 *)
  check Alcotest.string "tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Idcrypto.Hmac.hexmac ~key:(String.make 20 '\x0b') "Hi There");
  (* Test case 2 *)
  check Alcotest.string "tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Idcrypto.Hmac.hexmac ~key:"Jefe" "what do ya want for nothing?");
  (* Test case 3 *)
  check Alcotest.string "tc3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Idcrypto.Hmac.hexmac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'));
  (* Test case 4 *)
  check Alcotest.string "tc4"
    "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
    (Idcrypto.Hmac.hexmac
       ~key:(String.init 25 (fun i -> Char.chr (i + 1)))
       (String.make 50 '\xcd'));
  (* Test case 5: the tag truncated to 128 bits *)
  check Alcotest.string "tc5" "a3b6167473100ee06e0c796c2955552b"
    (String.sub
       (Idcrypto.Hmac.hexmac ~key:(String.make 20 '\x0c') "Test With Truncation")
       0 32);
  (* Test case 6: key longer than block size *)
  check Alcotest.string "tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Idcrypto.Hmac.hexmac
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First");
  (* Test case 7: key and data both longer than a block *)
  check Alcotest.string "tc7"
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (Idcrypto.Hmac.hexmac
       ~key:(String.make 131 '\xaa')
       "This is a test using a larger than block-size key and a larger than \
        block-size data. The key needs to be hashed before being used by the \
        HMAC algorithm.")

let test_hmac_prepared_key () =
  let msg = String.init 300 (fun i -> Char.chr ((i * 13) land 0xff)) in
  List.iter
    (fun n ->
      let key = String.init n (fun i -> Char.chr ((i * 31) land 0xff)) in
      let prepared = Idcrypto.Hmac.prepare key in
      (* Twice from one prepared key: starting must not consume it. *)
      for round = 1 to 2 do
        let t = Idcrypto.Hmac.start prepared in
        Idcrypto.Hmac.feed t msg;
        check Alcotest.string
          (Printf.sprintf "%d-byte key, round %d" n round)
          (Idcrypto.Hmac.mac ~key msg) (Idcrypto.Hmac.finalize t)
      done)
    [ 0; 20; 64; 65; 131 ]

(* The kernel compresses in place and allocates nothing per block, so an
   HMAC's allocation does not grow with its message. *)
let test_hmac_alloc_flat_in_length () =
  let key = Idcrypto.Hmac.prepare "allocation-gate" in
  let words len =
    let b = Bytes.make len 'x' in
    let run () =
      let t = Idcrypto.Hmac.start key in
      Idcrypto.Hmac.feed_bytes t b 0 len;
      ignore (Idcrypto.Hmac.finalize t)
    in
    run ();
    let before = Gc.minor_words () in
    run ();
    Gc.minor_words () -. before
  in
  check (Alcotest.float 0.) "1 KiB and 64 KiB allocate alike" (words 1024)
    (words 65536)

let test_hmac_verify () =
  let key = "secret" and msg = "message" in
  let tag = Idcrypto.Hmac.mac ~key msg in
  check Alcotest.bool "accepts valid" true (Idcrypto.Hmac.verify ~key ~tag msg);
  check Alcotest.bool "rejects wrong msg" false
    (Idcrypto.Hmac.verify ~key ~tag "other");
  check Alcotest.bool "rejects wrong key" false
    (Idcrypto.Hmac.verify ~key:"wrong" ~tag msg);
  check Alcotest.bool "rejects truncated tag" false
    (Idcrypto.Hmac.verify ~key ~tag:(String.sub tag 0 16) msg)

(* --- Sign --- *)

let test_sign_deterministic_keys () =
  let a = Idcrypto.Sign.generate "alice" in
  let a' = Idcrypto.Sign.generate "alice" in
  let b = Idcrypto.Sign.generate "bob" in
  check Alcotest.string "same owner same key" a.Idcrypto.Sign.public a'.Idcrypto.Sign.public;
  check Alcotest.bool "different owners differ" false
    (a.Idcrypto.Sign.public = b.Idcrypto.Sign.public);
  let seeded = Idcrypto.Sign.generate ~seed:"other" "alice" in
  check Alcotest.bool "seed changes key" false
    (a.Idcrypto.Sign.public = seeded.Idcrypto.Sign.public)

let test_sign_verify_cycle () =
  let kp = Idcrypto.Sign.generate "research" in
  let ks = Idcrypto.Sign.keystore () in
  Idcrypto.Sign.register ks kp;
  let data = [ "hash"; "app"; "requirements" ] in
  let signature = Idcrypto.Sign.sign ~secret:kp.Idcrypto.Sign.secret data in
  check Alcotest.bool "valid" true
    (Idcrypto.Sign.verify ks ~public:kp.Idcrypto.Sign.public ~signature data);
  check Alcotest.bool "tampered data" false
    (Idcrypto.Sign.verify ks ~public:kp.Idcrypto.Sign.public ~signature
       [ "hash"; "app"; "evil requirements" ]);
  check Alcotest.bool "unknown key" false
    (Idcrypto.Sign.verify ks ~public:"pkdeadbeef" ~signature data);
  check Alcotest.bool "garbage signature" false
    (Idcrypto.Sign.verify ks ~public:kp.Idcrypto.Sign.public ~signature:"zz" data)

let test_sign_canonical_unambiguous () =
  (* ["ab";"c"] and ["a";"bc"] must sign differently. *)
  let kp = Idcrypto.Sign.generate "x" in
  let s1 = Idcrypto.Sign.sign ~secret:kp.Idcrypto.Sign.secret [ "ab"; "c" ] in
  let s2 = Idcrypto.Sign.sign ~secret:kp.Idcrypto.Sign.secret [ "a"; "bc" ] in
  check Alcotest.bool "length-prefixed encoding" false (s1 = s2)

let test_keystore_host_binding () =
  let ks = Idcrypto.Sign.keystore () in
  let bound = Idcrypto.Sign.generate "bound" and free = Idcrypto.Sign.generate "free" in
  Idcrypto.Sign.register_for ks bound ~hosts:[ "10.0.0.2" ];
  Idcrypto.Sign.register ks free;
  let answers kp host = Idcrypto.Sign.answers_for ks ~public:kp.Idcrypto.Sign.public host in
  check Alcotest.bool "bound key, its host" true (answers bound "10.0.0.2");
  check Alcotest.bool "bound key, another host" false (answers bound "10.0.0.1");
  check Alcotest.bool "unbound key, any host" true (answers free "10.0.0.1");
  check Alcotest.bool "unknown key" false
    (Idcrypto.Sign.answers_for ks ~public:"pkdeadbeef" "10.0.0.2");
  check Alcotest.bool "a bound host signs" true
    (Idcrypto.Sign.signs_for ks "10.0.0.2");
  check Alcotest.bool "an unbound key binds no host" false
    (Idcrypto.Sign.signs_for ks "10.0.0.1");
  Idcrypto.Sign.register ks bound;
  check Alcotest.bool "re-registered unbound" true (answers bound "10.0.0.1");
  check Alcotest.bool "the old binding is gone" false
    (Idcrypto.Sign.signs_for ks "10.0.0.2")

(* The verified-section cache: a hit needs the same signer and tag, a
   tag is read in place from a longer list, the cache holds at most
   [section_capacity] entries (oldest out), and [element_at] matches one
   canonical element exactly. *)
let test_keystore_section_cache () =
  let ks = Idcrypto.Sign.keystore () in
  let kp = Idcrypto.Sign.generate "signer" in
  Idcrypto.Sign.register ks kp;
  let public = kp.Idcrypto.Sign.public in
  let tag i = Printf.sprintf "%032x" i in
  Idcrypto.Sign.cache_section ks ~public ~tag:(tag 0) [ "k"; "v" ];
  let list = "-," ^ tag 0 ^ ",-" in
  check Alcotest.string "hit in place" (Idcrypto.Sign.canonical [ "k"; "v" ])
    (Idcrypto.Sign.cached_section ks ~public list 2 32);
  check Alcotest.string "other signer" ""
    (Idcrypto.Sign.cached_section ks ~public:"pkother" list 2 32);
  check Alcotest.string "shifted slice" ""
    (Idcrypto.Sign.cached_section ks ~public list 3 32);
  check Alcotest.string "slice out of bounds" ""
    (Idcrypto.Sign.cached_section ks ~public list 30 32);
  for i = 1 to Idcrypto.Sign.section_capacity + 10 do
    Idcrypto.Sign.cache_section ks ~public ~tag:(tag i) [ string_of_int i ]
  done;
  check Alcotest.int "bounded" Idcrypto.Sign.section_capacity
    (Idcrypto.Sign.cached_sections ks);
  check Alcotest.string "oldest evicted" ""
    (Idcrypto.Sign.cached_section ks ~public list 2 32);
  let last = tag (Idcrypto.Sign.section_capacity + 10) in
  check Alcotest.bool "newest kept" true
    (Idcrypto.Sign.cached_section ks ~public last 0 32 <> "");
  let bytes = Idcrypto.Sign.canonical [ "ab"; "" ] in
  check Alcotest.int "element found" 4 (Idcrypto.Sign.element_at_sub bytes 0 "ab" 0 2);
  check Alcotest.int "empty element" 6 (Idcrypto.Sign.element_at_sub bytes 4 "" 0 0);
  check Alcotest.int "prefix is not a match" (-1) (Idcrypto.Sign.element_at_sub bytes 0 "a" 0 1);
  check Alcotest.int "past the end" (-1) (Idcrypto.Sign.element_at_sub bytes 6 "" 0 0);
  check Alcotest.int "negative position chains" (-1) (Idcrypto.Sign.element_at_sub bytes (-1) "ab" 0 2);
  Idcrypto.Sign.register ks kp;
  check Alcotest.int "re-registering drops the signer's entries" 0
    (Idcrypto.Sign.cached_sections ks)

(* Re-registering a signer drops its cached sections, but their keys
   stay queued for eviction; the keystore must stay bounded by its
   capacity anyway. Each round re-registers the one signer and re-caches
   its one section, so the keystore holds one section throughout. *)
let test_keystore_reregister_bounded () =
  let ks = Idcrypto.Sign.keystore () in
  let kp = Idcrypto.Sign.generate "signer" in
  let round () =
    Idcrypto.Sign.register ks kp;
    Idcrypto.Sign.cache_section ks ~public:kp.Idcrypto.Sign.public
      ~tag:(String.make 32 'a') [ "k"; "v" ]
  in
  round ();
  let base = Obj.reachable_words (Obj.repr ks) in
  (* Up to twice the capacity of keys queued, a 3-word cell each. *)
  let bound = base + (3 * 2 * Idcrypto.Sign.section_capacity) in
  for i = 1 to 10_000 do
    round ();
    if i mod 1000 = 0 then begin
      let words = Obj.reachable_words (Obj.repr ks) in
      if words > bound then
        Alcotest.failf "%d reachable words after %d rounds (bound %d)" words i
          bound
    end
  done;
  check Alcotest.int "one section held" 1 (Idcrypto.Sign.cached_sections ks)

let prop_sign_verify_roundtrip =
  QCheck.Test.make ~name:"sign/verify roundtrip on random data" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 5) string)
    (fun data ->
      let kp = Idcrypto.Sign.generate "prop" in
      let ks = Idcrypto.Sign.keystore () in
      Idcrypto.Sign.register ks kp;
      let signature = Idcrypto.Sign.sign ~secret:kp.Idcrypto.Sign.secret data in
      Idcrypto.Sign.verify ks ~public:kp.Idcrypto.Sign.public ~signature data)

(* Elements of every length class: empty, and one-, two- and
   three-digit length prefixes. *)
let gen_element =
  QCheck.Gen.(
    frequency
      [
        (1, return "");
        (3, string_size (int_range 1 9));
        (2, string_size (int_range 10 99));
        (1, string_size (int_range 100 300));
      ])

let prop_streamed_tag_is_canonical_mac =
  QCheck.Test.make ~name:"streamed tag equals mac over canonical" ~count:300
    (QCheck.make
       QCheck.Gen.(pair (string_size (int_range 0 100)) (list_size (int_range 0 8) gen_element))
       ~print:QCheck.Print.(pair String.escaped (list String.escaped)))
    (fun (secret, data) ->
      Idcrypto.Sign.sign ~secret data
      = Idcrypto.Hex.encode
          (Idcrypto.Hmac.mac ~key:secret (Idcrypto.Sign.canonical data)))

let prop_hmac_incremental_split =
  QCheck.Test.make ~name:"incremental hmac equals one-shot at any split"
    ~count:300
    QCheck.(triple string (string_of_size (QCheck.Gen.int_range 0 300)) (pair small_nat small_nat))
    (fun (key, msg, (a, b)) ->
      let n = String.length msg in
      let a = a mod (n + 1) in
      let b = a + (b mod (n - a + 1)) in
      let t = Idcrypto.Hmac.init ~key in
      Idcrypto.Hmac.feed t (String.sub msg 0 a);
      Idcrypto.Hmac.feed_bytes t (Bytes.of_string msg) a (b - a);
      Idcrypto.Hmac.feed t (String.sub msg b (n - b));
      Idcrypto.Hmac.finalize t = Idcrypto.Hmac.mac ~key msg)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "idcrypto"
    [
      ( "hex",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "case insensitive" `Quick test_hex_case_insensitive;
          Alcotest.test_case "rejects bad input" `Quick test_hex_rejects_bad_input;
          Alcotest.test_case "spells" `Quick test_hex_spells;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "nist vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Quick test_sha256_million_a;
          Alcotest.test_case "streaming equals one-shot" `Quick
            test_sha256_streaming_equals_oneshot;
          Alcotest.test_case "edge lengths match reference" `Quick
            test_sha256_edge_lengths_match_reference;
          Alcotest.test_case "feed bounds" `Quick test_sha256_feed_bounds;
          Alcotest.test_case "midstate" `Quick test_sha256_midstate;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "prepared key" `Quick test_hmac_prepared_key;
          Alcotest.test_case "allocation flat in length" `Quick
            test_hmac_alloc_flat_in_length;
        ] );
      ( "sign",
        [
          Alcotest.test_case "deterministic keys" `Quick test_sign_deterministic_keys;
          Alcotest.test_case "verify cycle" `Quick test_sign_verify_cycle;
          Alcotest.test_case "canonical unambiguous" `Quick
            test_sign_canonical_unambiguous;
          Alcotest.test_case "keystore host binding" `Quick
            test_keystore_host_binding;
          Alcotest.test_case "keystore section cache" `Quick
            test_keystore_section_cache;
          Alcotest.test_case "keystore bounded across re-registers" `Quick
            test_keystore_reregister_bounded;
        ] );
      ( "properties",
        qc
          [
            prop_sha256_streaming_split;
            prop_sha256_matches_reference;
            prop_sha256_injective_on_samples;
            prop_sign_verify_roundtrip;
            prop_streamed_tag_is_canonical_mac;
            prop_hmac_incremental_split;
          ] );
    ]
