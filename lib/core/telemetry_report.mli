(** Plain-text rendering of the flight recorder's output: probe
    timelines as summary rows with ASCII sparklines, and the health
    monitor's incident log. Shared by the [swala_sim] CLI — post-run
    printing from the live structures, and the [report] subcommand from a
    parsed metrics-JSON payload. *)

(** [timelines_table reg] tabulates every registered probe of the
    simulation: kind, non-empty bucket count, mean/min/max/last of the
    rendered values, and a sparkline over the buckets (space = empty
    bucket). The [gc.*] probes, which read the host allocator, are left
    out here and in {!render_json_report}, so the table is the same for
    every build of the same simulation. *)
val timelines_table : Metrics.Registry.t -> Metrics.Table.t

(** [incidents_table incidents] tabulates incident records in time
    order. *)
val incidents_table : Metrics.Health.incident list -> Metrics.Table.t

(** [render_json_report payload] renders the ["timelines"] and
    ["incidents"] sections of a parsed metrics-JSON payload, whichever
    are present; [None] when the payload carries neither (telemetry was
    off). *)
val render_json_report : Metrics.Json.t -> string option
