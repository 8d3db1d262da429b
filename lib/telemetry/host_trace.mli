(** Serialization of a {!Telemetry.snapshot}: Chrome trace_event spans
    (one track per domain), the versioned [host_telemetry] summary
    section, and the combined document `darsie --telemetry FILE` writes.

    The document is a regular Chrome trace (a top-level [traceEvents]
    list, loadable in Perfetto) that additionally carries the
    [host_telemetry] object; trace viewers ignore the extra key, and
    [darsie telemetry-summary] reads it back. Host spans live under
    their own process id ({!host_pid}) so they never collide with the
    per-SM tracks of the simulated-GPU trace and the two can share one
    file. *)

val schema_version : int
(** Version of the [host_telemetry] section (independent of the metrics
    document version). *)

val host_pid : int
(** Chrome-trace process id of the host-telemetry tracks. *)

val chrome_events : Telemetry.snapshot -> Darsie_obs.Json.t list
(** Complete ("ph":"X") events for every recorded span, with process /
    thread name metadata; timestamps in microseconds from the epoch,
    one thread track per domain. All strings are routed through the
    {!Darsie_obs.Json} escaper. *)

val host_telemetry_json : Telemetry.snapshot -> Darsie_obs.Json.t
(** The versioned summary section: per-phase [count]/[total_ns]/[self_ns],
    counter totals, wall meters, and per-domain busy/idle. Validated by
    [Darsie_harness.Metrics.validate]. *)

val document : Telemetry.snapshot -> Darsie_obs.Json.t
(** [traceEvents] + [displayTimeUnit] + [host_telemetry] in one object. *)

val summary_of_document : Darsie_obs.Json.t -> Darsie_obs.Json.t option
(** Extract the [host_telemetry] section from a document (or return the
    input when it is itself a bare section). *)

val render_summary : Darsie_obs.Json.t -> (string, string) result
(** Human table of a [host_telemetry] section: phases ranked by self
    wall, per-domain utilization, counters. *)

(** {1 Normalized forms}

    Deterministic projections for tests: timestamps zeroed, domain
    identities erased, spans sorted structurally — two runs of the same
    workload must produce equal values regardless of scheduling. *)

val normalized_spans : Telemetry.snapshot -> Darsie_obs.Json.t
(** The merged span forest with times stripped, sorted recursively. *)

val normalized_summary : Telemetry.snapshot -> Darsie_obs.Json.t
(** Phase names/counts, counter totals and the domain count — no
    wall-clock quantities. *)
