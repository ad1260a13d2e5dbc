type keypair = { owner : string; public : string; secret : string }

let generate ?(seed = "identxx-default-seed") owner =
  let secret = Sha256.hexdigest (Printf.sprintf "sk|%s|%s" seed owner) in
  let public = "pk" ^ String.sub (Sha256.hexdigest ("pk|" ^ secret)) 0 40 in
  { owner; public; secret }

let canonical data =
  let buf = Buffer.create 64 in
  List.iter
    (fun d ->
      Buffer.add_string buf (string_of_int (String.length d));
      Buffer.add_char buf ':';
      Buffer.add_string buf d)
    data;
  Buffer.contents buf

(* [digits] holds one element's "<decimal length>:" prefix, written right
   to left; 19 digits cover any string length. *)
type stream = { hmac : Hmac.ctx; digits : Bytes.t }

let keyed key = { hmac = Hmac.start key; digits = Bytes.create 20 }
let stream ~secret = keyed (Hmac.prepare secret)

(* Write [n]'s decimal digits into [b] ending at [i]; the first digit's
   index. *)
let rec put_digits b n i =
  Bytes.set b i (Char.unsafe_chr (Char.code '0' + (n mod 10)));
  if n >= 10 then put_digits b (n / 10) (i - 1) else i

let add st d =
  let b = st.digits in
  let last = Bytes.length b - 1 in
  Bytes.set b last ':';
  let first = put_digits b (String.length d) (last - 1) in
  Hmac.feed_bytes st.hmac b first (last + 1 - first);
  Hmac.feed st.hmac d

let finish st = Hex.encode (Hmac.finalize st.hmac)

let sign ~secret data =
  let st = stream ~secret in
  List.iter (add st) data;
  finish st

(* Public handle to the principal's prepared secret. *)
type keystore = (string, Hmac.key) Hashtbl.t

let keystore () = Hashtbl.create 16

let register_public ks ~public ~secret =
  Hashtbl.replace ks public (Hmac.prepare secret)

let register ks kp = register_public ks ~public:kp.public ~secret:kp.secret
let known ks public = Hashtbl.mem ks public

let verifier ks ~public =
  match Hashtbl.find_opt ks public with
  | None -> None
  | Some key -> Some (keyed key)

let matches st ~signature =
  match Hex.decode signature with
  | Error _ -> false
  | Ok tag -> Hmac.check st.hmac ~tag

let verify ks ~public ~signature data =
  match verifier ks ~public with
  | None -> false
  | Some st ->
      List.iter (add st) data;
      matches st ~signature
