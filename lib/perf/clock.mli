(** The repository's single wall-clock gateway.

    Everything in [lib/] / [bin/] / [bench/] is sim code as far as the
    aurora_lint determinism rule is concerned: real time must never leak
    into simulated behaviour.  Measuring the *harness itself* (benchmark
    wall-clock, events/sec) is the one legitimate use of real time, and this
    module is the single place allowed to touch [Unix] for it — the lint
    rule whitelists exactly [lib/perf/clock.ml].

    Readings feed only perf-side accounting ({!Probe}, benchmark timings);
    nothing here may be consulted by simulation state. *)

val now_ns : unit -> int
(** Wall-clock reading in integer nanoseconds since the Unix epoch.
    Resolution is whatever [Unix.gettimeofday] provides (typically ~1us);
    good enough for the multi-millisecond spans the perf layer measures. *)

val elapsed_ns : since:int -> int
(** [elapsed_ns ~since:t0] = [now_ns () - t0], clamped to [0] so callers
    never see a negative span if the system clock steps backwards. *)

val elapsed_s : since:int -> float
(** Same span in seconds, for rate computations (events/sec). *)
