let signer_key = "response-signer"
let sig_key = "response-sig"

(* Stream what a signature covers into [st]: the flow's header, then
   every pair of the first [n] sections, as the element list
   [PROTO SRC DST; k1; v1; ...] that Sign.canonical length-prefixes. *)
let add_covered st (r : Response.t) n =
  Idcrypto.Sign.add st
    (String.concat " "
       [
         Netcore.Proto.to_string r.Response.proto;
         string_of_int r.Response.src_port;
         string_of_int r.Response.dst_port;
       ]);
  let rec pairs = function
    | [] -> ()
    | (p : Key_value.pair) :: rest ->
        Idcrypto.Sign.add st p.key;
        Idcrypto.Sign.add st p.value;
        pairs rest
  in
  let rec sections n = function
    | section :: rest when n > 0 ->
        pairs section;
        sections (n - 1) rest
    | _ -> ()
  in
  sections n r.Response.sections

let sign_with ~public ~key (r : Response.t) =
  let st = Idcrypto.Sign.keyed key in
  add_covered st r (List.length r.Response.sections);
  Response.append_section r
    [
      Key_value.pair signer_key public;
      Key_value.pair sig_key (Idcrypto.Sign.finish st);
    ]

let sign ~(keypair : Idcrypto.Sign.keypair) r =
  sign_with ~public:keypair.Idcrypto.Sign.public
    ~key:(Idcrypto.Hmac.prepare keypair.Idcrypto.Sign.secret)
    r

type verdict = Valid of int | Unsigned | Invalid

let verify keystore (r : Response.t) =
  (* The first section carrying a signature covers the [n] before it. *)
  let rec find n = function
    | [] -> Unsigned
    | section :: rest -> (
        match (Key_value.find section signer_key, Key_value.find section sig_key) with
        | Some public, Some signature -> (
            match Idcrypto.Sign.verifier keystore ~public with
            | None -> Invalid
            | Some st ->
                add_covered st r n;
                if Idcrypto.Sign.matches st ~signature then Valid n else Invalid)
        | _ -> find (n + 1) rest)
  in
  find 0 r.Response.sections
