(** Per-subsystem profiling hooks: wall-clock timers and allocation
    counters around the simulator's hot paths.

    The three instrumented subsystems are the layers the libraries emit
    spans for: {!Simnet.Net} message delivery, the storage node's
    foreground write apply, and consistency-point advancement in
    [Aurora_core.Consistency].  Simulator event dispatch is timed by
    whoever attaches a {!Simcore.Sim.set_probe} hook (the perfbench
    tracer does).

    All state lives here, outside the simulation: enabling or disabling
    probes changes *nothing* observable inside a run (no RNG draws, no sim
    events, no metrics registry entries), so the byte-diff determinism gate
    is untouched.  It is process-global — the two [[@@sim_global]]
    bindings are the only top-level mutables in [lib/] — because the
    benchmark driver drives this API around whole runs without holding a
    cluster; {!reset} between runs is the caller's job.  Probes are disabled by default; a disabled
    {!start}/{!stop} pair costs one load and branch.

    Spans may nest across subsystems (delivery > apply) but a subsystem's
    spans must not nest within themselves — each subsystem has a single
    open-span slot, which is what keeps the enabled path allocation-free
    apart from the boxed float [Unix.gettimeofday] returns. *)

type subsystem =
  | Net_delivery  (** One message hand-off to its delivery handler. *)
  | Storage_apply  (** One [Write_batch] foreground apply on a storage node. *)
  | Consistency_advance
      (** One ack processed through SCL -> PGCL -> VCL advancement. *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero all accumulated stats (open spans are discarded). *)

val start : subsystem -> unit
(** Open the subsystem's span: record wall-clock and minor-heap marks.
    No-op while disabled. *)

val stop : subsystem -> unit
(** Close the span and accumulate call count, wall time, and minor-heap
    words allocated.  No-op while disabled or without a matching
    {!start}. *)

type stat = {
  calls : int;
  wall_ns : int;  (** Total wall-clock time inside the subsystem's spans. *)
  minor_words : float;
      (** Minor-heap words allocated inside the spans (from
          [Gc.minor_words] deltas; nested subsystems' allocations are
          included in the enclosing span). *)
}

val stat : subsystem -> stat
