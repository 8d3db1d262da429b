(** The machine-readable metrics document, and the one validator for
    every JSON document the toolchain writes.

    One metrics document per (app, machine) run: every raw counter, the
    derived metrics, the per-SM stall-cycle attribution, the sampled
    time-series, the per-PC profile, the skip ledger and the energy
    breakdown, all under a versioned schema (docs/metrics-schema.md).

    {!validate} detects a document's kind ({!kind_of}) and re-proves
    that kind's identities from the serialized numbers. The CLI runs it
    on every document before writing it, and [darsie validate FILE...]
    runs it on files. *)

val schema_version : int
(** Version of the metrics document; equals
    [Darsie_obs.Export.schema_version]. Bumped on any rename, removal or
    change of meaning (see docs/metrics-schema.md for the policy). *)

val of_run : app:string -> ?scale:int -> Suite.run -> Darsie_obs.Json.t
(** Export one (app, machine) run as a metrics document: counters,
    derived metrics, stall attribution, optional series and per-PC
    profile, and the energy breakdown. [scale] defaults to 1 and is
    recorded verbatim. *)

val check_schema_version : int
(** Version of the check-report document ({!Checker.to_json}). *)

val fuzz_schema_version : int
(** Version of the fuzz-campaign document ([darsie fuzz --json]). *)

val sensitivity_schema_version : int
(** Version of the sensitivity-sweep document
    ([darsie experiment sensitivity --json]). *)

val telemetry_schema_version : int
(** Version of the [host_telemetry] section
    ([Darsie_telemetry.Host_trace.schema_version]). *)

val kinds : string list
(** Every document kind {!validate} knows: ["metrics"],
    ["check_report"], ["fuzz_campaign"], ["sensitivity_sweep"] and
    ["host_telemetry"]. *)

val kind_of : Darsie_obs.Json.t -> (string, string) result
(** The kind of a document: its ["kind"] tag when it has one (an
    unknown tag is an error); ["host_telemetry"] for an untagged object
    carrying a [host_telemetry] member; ["metrics"] for any other
    untagged object. A bare Chrome trace ([traceEvents] without
    [host_telemetry]) and a non-object are errors. *)

val validate : Darsie_obs.Json.t -> (unit, string) result
(** Detect the kind, then re-check it; [Error] names the first broken
    identity. A metrics document (schema version 2 or 3) must have
    per-SM stall buckets summing to [cycles], [stall_attribution.total]
    equal to the bucket-wise sum of [per_sm], per-PC charges plus
    [unattributed] equal to [total] bucket by bucket, and a conserving
    skip ledger ([totals] equal to the fate-wise sum of [rows]). The
    other kinds re-prove their bookkeeping: check-report pass flags,
    fuzz-campaign counts, sensitivity speedups and geomeans, and the
    telemetry span clock ([Σ phase self_ns = Σ domain busy_ns]). *)

val validate_string : string -> (unit, string) result
(** Parse then {!validate}. *)

val write_file : string -> Darsie_obs.Json.t -> unit
(** Write any JSON document to [path]: pretty-printed, trailing
    newline. *)
