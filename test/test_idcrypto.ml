(* Tests for the crypto substrate: official SHA-256 and HMAC vectors,
   streaming-hash properties, hex codec, and the simulated-PKI signature
   scheme behind PF+=2's verify(). *)

let check = Alcotest.check

(* --- Hex --- *)

let test_hex_roundtrip () =
  List.iter
    (fun s ->
      check Alcotest.string ("roundtrip " ^ s) s
        (Idcrypto.Hex.decode_exn (Idcrypto.Hex.encode s)))
    [ ""; "a"; "hello"; "\x00\xff\x7f" ]

let test_hex_case_insensitive () =
  check Alcotest.string "upper case accepted" "\xde\xad"
    (Idcrypto.Hex.decode_exn "DEAD")

let test_hex_rejects_bad_input () =
  List.iter
    (fun s ->
      match Idcrypto.Hex.decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ "a"; "zz"; "0g"; "abc" ];
  check Alcotest.(result string string) "names the first bad digit"
    (Error "Hex.decode: bad digit 'z'") (Idcrypto.Hex.decode "00zg")

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
  (* Test case 6: key longer than block size *)
  check Alcotest.string "tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Idcrypto.Hmac.hexmac
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

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
        ] );
      ( "sha256",
        [
          Alcotest.test_case "nist vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Quick test_sha256_million_a;
          Alcotest.test_case "streaming equals one-shot" `Quick
            test_sha256_streaming_equals_oneshot;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "sign",
        [
          Alcotest.test_case "deterministic keys" `Quick test_sign_deterministic_keys;
          Alcotest.test_case "verify cycle" `Quick test_sign_verify_cycle;
          Alcotest.test_case "canonical unambiguous" `Quick
            test_sign_canonical_unambiguous;
        ] );
      ( "properties",
        qc
          [
            prop_sha256_streaming_split;
            prop_sha256_injective_on_samples;
            prop_sign_verify_roundtrip;
            prop_streamed_tag_is_canonical_mac;
            prop_hmac_incremental_split;
          ] );
    ]
