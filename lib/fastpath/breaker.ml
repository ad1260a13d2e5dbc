open Netcore

type state = Closed | Open_until of Sim.Time.t | Probing

type host_state = {
  mutable consecutive : int;
  mutable st : state;
}

module Tbl = Hashtbl.Make (struct
  type t = Ipv4.t

  let equal = Ipv4.equal
  let hash = Ipv4.hash
end)

type t = {
  threshold : int;
  backoff : Sim.Time.t;
  hosts : host_state Tbl.t;
  mutable trips : int;
  mutable fastpaths : int;
}

let create ?(threshold = 3) ?(backoff = Sim.Time.s 30) () =
  if threshold < 1 then invalid_arg "Breaker.create: threshold must be >= 1";
  { threshold; backoff; hosts = Tbl.create 64; trips = 0; fastpaths = 0 }

let host t ip =
  match Tbl.find_opt t.hosts ip with
  | Some h -> h
  | None ->
      let h = { consecutive = 0; st = Closed } in
      Tbl.replace t.hosts ip h;
      h

let consult t ~now ip =
  match Tbl.find_opt t.hosts ip with
  | None -> `Ask
  | Some h -> (
      match h.st with
      | Closed -> `Ask
      | Probing ->
          t.fastpaths <- t.fastpaths + 1;
          `Absent
      | Open_until until ->
          if Sim.Time.(now < until) then begin
            t.fastpaths <- t.fastpaths + 1;
            `Absent
          end
          else begin
            h.st <- Probing;
            `Probe
          end)

let note_timeout t ~now ip =
  let h = host t ip in
  match h.st with
  | Probing ->
      (* The probe failed: straight back to open. *)
      h.st <- Open_until (Sim.Time.add now t.backoff);
      t.trips <- t.trips + 1
  | Open_until _ -> ()
  | Closed ->
      h.consecutive <- h.consecutive + 1;
      if h.consecutive >= t.threshold then begin
        h.st <- Open_until (Sim.Time.add now t.backoff);
        t.trips <- t.trips + 1
      end

let note_response t ip = Tbl.remove t.hosts ip

let state t ip =
  match Tbl.find_opt t.hosts ip with None -> Closed | Some h -> h.st

let trips t = t.trips
let fastpaths t = t.fastpaths
let tracked t = Tbl.length t.hosts
