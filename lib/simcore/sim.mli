(** Deterministic discrete-event simulation loop.

    A simulation is a clock plus a priority queue of pending events.  Events
    are closures scheduled at absolute instants; the loop pops the earliest
    event, advances the clock to its timestamp, and runs it.  Ties break by
    scheduling order (FIFO among same-instant events), which together with the
    deterministic {!Rng} makes whole runs reproducible from a seed.

    All Aurora components in this repository — storage nodes, the writer
    instance, replicas, the network, baseline protocols — are actors driven by
    this loop.  None of them ever consults wall-clock time. *)

type t

type event_id
(** Handle for cancellation.  Ids are never reused within one simulation. *)

val create : unit -> t

val now : t -> Time_ns.t
(** Current simulated instant. *)

val schedule : t -> delay:Time_ns.t -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t + delay].  Negative delays clamp
    to zero (the event runs at the current instant, after already-queued
    same-instant events). *)

val schedule_at : t -> at:Time_ns.t -> (unit -> unit) -> event_id
(** Absolute-time variant.  Instants in the past clamp to [now]. *)

val cancel : t -> event_id -> unit
(** Cancelling an already-run or unknown event is a no-op. *)

val every : t -> interval:Time_ns.t -> (unit -> bool) -> unit
(** [every t ~interval f] runs [f] at [now + interval], then repeatedly every
    [interval] for as long as [f] returns [true].  Used for background
    activities (gossip, GC, scrubbing). *)

val run : t -> unit
(** Drain the event queue completely. *)

val run_until : t -> Time_ns.t -> unit
(** Run events with timestamps [<= limit]; afterwards [now t = limit] (or
    later if an event at the limit scheduled same-instant work). *)

val step : t -> bool
(** Run the single earliest event.  [false] if the queue was empty. *)

val pending : t -> int
(** Number of not-yet-run, not-cancelled events. *)

val processed : t -> int
(** Total events executed so far (a cheap progress/efficiency metric). *)

type stats = {
  processed : int;  (** Events executed (same as {!processed}). *)
  pending : int;  (** Same as {!pending}. *)
  max_heap_depth : int;
      (** High-water mark of the event queue over the whole run — the
          number every pooling/flattening optimisation must size for. *)
}

val stats : t -> stats
(** Dispatch counters.  Deterministic: derived purely from scheduling
    activity, never from wall-clock. *)

type probe = { on_start : unit -> unit; on_stop : unit -> unit }
(** Hooks run around each event execution.  Intended for wall-clock and
    allocation accounting of event dispatch (the perfbench tracer times
    self time per event kind through them); hooks must not schedule
    events, draw randomness, or otherwise touch sim state, so that an
    instrumented run stays byte-identical to a bare one. *)

val set_probe : t -> probe option -> unit
(** [None] (the default) restores the zero-overhead path. *)
