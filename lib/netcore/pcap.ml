type writer = { buf : Buffer.t; snaplen : int; mutable count : int }

let add32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let add16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))

let create_writer ?(snaplen = 65535) buf =
  (* Global header: magic, version 2.4, tz 0, sigfigs 0, snaplen,
     network = 1 (Ethernet). *)
  add32 buf 0xa1b2c3d4;
  add16 buf 2;
  add16 buf 4;
  add32 buf 0;
  add32 buf 0;
  add32 buf snaplen;
  add32 buf 1;
  { buf; snaplen; count = 0 }

let write_bytes w ~ts_us frame =
  let orig = String.length frame in
  let incl = min orig w.snaplen in
  add32 w.buf (ts_us / 1_000_000);
  add32 w.buf (ts_us mod 1_000_000);
  add32 w.buf incl;
  add32 w.buf orig;
  Buffer.add_substring w.buf frame 0 incl;
  w.count <- w.count + 1

let write_packet w ~ts_us pkt = write_bytes w ~ts_us (Packet.encode pkt)
let packet_count w = w.count

type record = { ts_us : int; orig_len : int; frame : string }

let get32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let parse s =
  if String.length s < 24 then Error "pcap: truncated global header"
  else if get32 s 0 <> 0xa1b2c3d4 then Error "pcap: bad magic"
  else begin
    let rec records off acc =
      if off = String.length s then Ok (List.rev acc)
      else if off + 16 > String.length s then Error "pcap: truncated record header"
      else
        let sec = get32 s off in
        let usec = get32 s (off + 4) in
        let incl = get32 s (off + 8) in
        let orig = get32 s (off + 12) in
        if off + 16 + incl > String.length s then Error "pcap: truncated record"
        else
          records
            (off + 16 + incl)
            ({
               ts_us = (sec * 1_000_000) + usec;
               orig_len = orig;
               frame = String.sub s (off + 16) incl;
             }
            :: acc)
    in
    records 24 []
  end
