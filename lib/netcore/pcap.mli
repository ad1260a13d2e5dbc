(** Classic libpcap capture files (the 24-byte global header followed by
    per-packet records), so simulated traffic can be inspected with
    standard tools. Timestamps come from the simulation clock. *)

type writer

val create_writer : ?snaplen:int -> Buffer.t -> writer
(** Writes the global header immediately (magic 0xa1b2c3d4,
    little-endian, LINKTYPE_ETHERNET). *)

val write_packet : writer -> ts_us:int -> Packet.t -> unit
(** Append one record; [ts_us] is microseconds since capture start.
    Frames longer than the snap length are truncated in the record (the
    original length field is preserved). *)

val write_bytes : writer -> ts_us:int -> string -> unit
(** Append pre-encoded frame bytes. *)

val packet_count : writer -> int

type record = { ts_us : int; orig_len : int; frame : string }

val parse : string -> (record list, string) result
(** Parse a capture produced by this module (little-endian, usec
    resolution). *)
