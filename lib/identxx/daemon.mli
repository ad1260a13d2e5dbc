(** The ident++ end-host daemon (§3.5).

    The daemon answers controller queries about flows with key-value
    sections assembled from three sources: what the kernel knows (the
    process/user owning the flow, via {!Process_table}), static
    configuration files ([@app] blocks and host-wide pairs), and pairs
    the application registered at run time (the paper's Unix-domain
    socket, here a direct call).

    Section order in a response (later = more trusted by {!Response.latest}):
    + daemon built-ins (userID, groupID, exe-path, exe-hash, name, pid);
    + the executable's [@app] configuration pairs;
    + run-time application pairs for this flow;
    + host-wide administrator pairs (the [/etc/identxx] analogue).

    A daemon can be put in a dishonest {!behaviour} to model the
    compromised end-hosts of §5.3. *)

open Netcore

type behaviour =
  | Honest
  | Silent  (** Answers nothing — a crashed or firewalled daemon. *)
  | Lying of Key_value.section
      (** Replaces the truthful sections with fabricated pairs — a
          compromised host's daemon (§5.3). *)

type t

val create :
  ?behaviour:behaviour ->
  ip:Ipv4.t ->
  processes:Process_table.t ->
  exe_hash:(string -> string option) ->
  unit ->
  t
(** [exe_hash path] returns the hash of the executable image at [path],
    or [None] when unknown. *)

val set_behaviour : t -> behaviour -> unit

val set_signing_key : t -> Idcrypto.Sign.keypair option -> unit
(** When set, every response is authenticated with a final {!Signed}
    section. The static sections (built-ins, [@app] config, host
    globals) are assembled and tagged once and cached with their
    {!Signed.section_tag}s and their lines as they go on the wire; each
    answer then computes only its binding tag, and is written once into
    a buffer of its exact length ({!Signed.assemble}). The cache is dropped whole when the key is set, a configuration
    is loaded, the {!behaviour} switches or {!notify_change} is called;
    a process's exit drops only that pid's built-in section. Other
    changes (a spawn, a listener bound or closed, run-time pairs) fire
    {!on_change} but leave the cache: no cached section reads them. *)

val load_config : t -> name:string -> string -> (unit, string) result
(** Parse and add a configuration file. Files are kept sorted by [name]
    and applied in that order, like the controller's [.control] files. *)

val register_runtime : t -> flow:Five_tuple.t -> Key_value.section -> unit
(** The application-to-daemon channel: pairs the app supplies for one of
    its flows (e.g. a browser distinguishing user-clicked requests). *)

val clear_runtime : t -> flow:Five_tuple.t -> unit

type role = As_source | As_destination

val respond :
  ?decode:float * float -> t -> peer:Ipv4.t -> Query.t -> (Response.t * role) option
(** Answer [query], about the flow of its protocol and ports whose far
    end is [peer]. The daemon first tries to interpret itself as the
    flow's source (an owned connection), then as its destination (an
    accepted connection or a listener). [None] when the daemon is
    {!Silent}.

    Even when no owning process exists, an honest daemon still responds
    with its host-wide pairs — the controller decides what an absent
    [userID] means.

    The query's trace context ({!Query.trace}): an honest daemon then
    times its lookup / assemble / sign steps on {!clock} and piggybacks
    them on the response with {!Response.attach_trace}, after any
    signature section. [decode], when the caller timed {!Query.decode}
    itself, is reported as one more span. Dishonest daemons ignore
    both.

    The query's plain hints (§3.2, {!Query.t}), read where they sit. A
    static section (built-ins, [@app] config, globals) that holds none
    of them stays home, whole; the run-time section always goes.
    Extension tokens — any key starting with ['@'], such as [@trace/…]
    and [@nonce/…] — are never hints, and a query with no other key
    asks for every section.

    The query's nonce: a signing daemon echoes it, copied from where it
    sits, with its own address and [peer], under the answer's binding
    tag. The run-time section is the one per-flow section; the others
    carry their cached section tags. The signature section also declares
    each section's reuse scope ({!Signed.scope}): the owner's built-in
    and [@app] sections are [Socket] when a listener was found and
    [Flow] for a connected socket (or when run-time pairs set a flow to
    the listener apart), run-time pairs are [Flow], and the globals are
    [Host] beside the owner's built-ins, else as far as the lookup
    held. *)

val answer :
  ?trace:Obs.Trace_context.t ->
  ?decode:float * float ->
  ?nonce:string ->
  t ->
  peer:Ipv4.t -> proto:Proto.t -> src_port:int -> dst_port:int ->
  keys:string list -> (Response.t * role) option
(** {!respond} to the query carrying [keys] as its hints, and [nonce]
    and [trace] when given ({!Query.of_keys}): the entry for callers
    that hold a key list rather than a query. *)

val wanted : keys:string list -> Key_value.section -> bool
(** Whether a static section goes out in answer to a query hinting
    [keys], by {!respond}'s rule. *)

val queries_answered : t -> int

val clock : t -> unit -> float
(** The daemon's clock (seconds). Defaults to [fun () -> 0.] so
    untimed deployments stay deterministic; {!set_metrics}'s [?clock]
    replaces it. Callers timing work on the
    daemon's behalf (e.g. {!Host.handle_packet} timing
    {!Query.decode}) must read this clock so span times are
    comparable. *)

val set_metrics :
  t ->
  ?clock:(unit -> float) ->
  ?labels:(string * string) list ->
  Obs.Registry.t ->
  unit
(** Start recording into [registry]: [identxx_daemon_queries_total]
    (label [result="answered"|"silent"]), a service-time histogram
    [identxx_daemon_answer_seconds], and
    [identxx_daemon_responses_signed_total]. [labels] — typically
    [("host", name)] — are added to every series. [clock], when given,
    replaces the daemon {!clock} (the simulator injects sim time,
    [identxxd] wall time). *)

val on_change : t -> (unit -> unit) -> unit
(** Register a callback fired whenever what the daemon would answer may
    have changed: process spawn or exit, or a listener bound or closed,
    on the host ({!Process_table.on_change}), a configuration (re)load, run-time
    pairs registered or cleared, or a behaviour switch. The controller's
    fast path subscribes to this to invalidate cached host attributes
    (see DESIGN.md, "Flow-setup fast path"). Connection churn does not
    fire — see {!Process_table.on_change}. *)

val notify_change : t -> unit
(** Drop the daemon's cached sections and fire the {!on_change}
    callbacks, for a change in state the daemon reads but does not own:
    {!Host.install_exe} calls it when an executable's image, and so its
    [exe-hash], changes. *)
