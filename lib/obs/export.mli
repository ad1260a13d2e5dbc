(** Exporters: render a {!Registry} snapshot as Prometheus text
    exposition format or as a JSON snapshot, and re-render a parsed
    JSON snapshot back to Prometheus text (the [identxx_ctl metrics]
    round trip).

    Both formats are specified, with examples, in
    doc/OBSERVABILITY.md. *)

val prometheus : Registry.t -> string
(** Prometheus text format, version 0.0.4: [# HELP] / [# TYPE] header
    per metric name, one sample line per series, histogram expansion
    into [_bucket{le=...}] / [_sum] / [_count]. Series order follows
    {!Registry.snapshot} (deterministic). *)

val json_string : ?pretty:bool -> Registry.t -> string
(** The snapshot as [{"metrics": [...]}], rendered with {!Json.to_string} ([pretty] defaults to
    [true]: snapshots are operator-facing files). *)

val of_json : Json.t -> (Registry.series list, string) result
(** Parse a snapshot produced by {!json_string} back into series — the schema
    check behind [identxx_ctl metrics]. Unknown fields are ignored;
    missing or ill-typed required fields are errors naming the series. *)

val prometheus_of_series : Registry.series list -> string
(** Render parsed series as Prometheus text. For any registry [r],
    [prometheus r] and
    [of_json (json r) |> Result.get_ok |> prometheus_of_series] are
    byte-identical — pinned by a unit test. *)
