(** One observability context per cluster.

    Bundles the metrics {!Registry}, the {!Commit_path} tracker, the
    {!Series} time-series collection, and the {!Health} monitor.  Every
    component takes an optional [?obs] context at creation; a component
    built without one gets a fresh private context ({!create}) so
    instrumentation code never branches — the harness passes a single
    shared context to everything it builds and snapshots that.

    The series and health members are passive here: the harness decides
    which channels to track and drives [Series.sample]/[Health.observe]
    from a sim-clock timer.  They appear in {!snapshot} automatically once
    populated.  Events live in the cluster's flight recorder
    ([Recorder.Rings], one per [Harness.Cluster]), not here: [lib/recorder]
    sits above this library. *)

type t

val create : unit -> t

val registry : t -> Registry.t
val commit_path : t -> Commit_path.t
val series : t -> Series.t
val health : t -> Health.t

val snapshot : ?where:Registry.labels -> t -> Json.t
(** [{"at_ns"; "instruments"; "series"?; "health"?}].  ["series"]/["health"]
    appear once the sampler has run.  [at_ns] is supplied by the caller via
    {!snapshot_at} — this variant stamps 0.  Deterministic for identically
    seeded simulations. *)

val snapshot_at : at:Simcore.Time_ns.t -> ?where:Registry.labels -> t -> Json.t
