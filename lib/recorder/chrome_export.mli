(** Chrome trace-event-format export.

    Renders a context's commit-path timelines and the cluster's recorder
    rings as the JSON object format consumed by Perfetto /
    [chrome://tracing]:

    - each live commit-path timeline becomes async span pairs ([ph] "b" /
      "e", [id] = LSN): one umbrella span ["commit lsn=N"] from its first
      to its last observed stage, plus one sub-span per adjacent observed
      stage pair, named after the reached stage;
    - lifecycle ring events (start, crash, destroy, fence, recovery,
      membership changes, health edges) become instant events ([ph] "i",
      thread scope) with the recording node in their [args]; network
      traffic, watermark advances and commit events stay out — the
      timelines carry the commit path, and [aurora_cli explain] the rest;
    - lanes: [tid] 0 is the volume-level lane, [tid] [pg + 1] the lane of
      protection group [pg]; each lane gets a ["thread_name"] metadata
      record ([ph] "M").

    Timestamps are microseconds (simulated nanoseconds / 1000, as a
    float).  Every record carries [name]/[ph]/[ts]/[pid]/[tid].  Output is
    deterministic for identically seeded runs. *)

val to_json : Obs.Ctx.t -> Rings.t -> Obs.Json.t
(** [{"traceEvents": [...]; "displayTimeUnit": "ms"}]. *)

val to_string : ?pretty:bool -> Obs.Ctx.t -> Rings.t -> string
