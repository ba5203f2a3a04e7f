(** The read path: avoiding quorum reads (§3.1).

    "Aurora does not do quorum reads.  Through its bookkeeping of writes
    and consistency points, the database instance knows which segments have
    the last durable version of a data block and can request it directly
    from any of those segments."  The instance tracks per-node response
    times, usually reads from the lowest-latency candidate, occasionally
    probes another in parallel to keep latency estimates fresh, and hedges
    a second request when a reply is slow — capping tail latency without
    quorum amplification.

    The [Quorum_read] strategy is the baseline the paper argues against:
    read from [read_threshold] candidates and wait for all of them (the
    classical newest-version-wins quorum read); it costs Vr I/Os and its
    latency is the max of Vr draws. *)

open Wal
open Quorum

type strategy =
  | Direct_tracked of {
      hedge_after : Simcore.Time_ns.t option;
          (** Issue a second read if no reply within this bound. *)
      explore_probability : float;
          (** Chance of an extra parallel probe to a non-best candidate,
              keeping latency estimates fresh. *)
    }
  | Quorum_read of { read_threshold : int }

type metrics = {
  mutable reads : int;
  mutable ios_issued : int;
  mutable hedges : int;
  mutable explores : int;
  mutable retries : int;
  mutable failures : int;
  latency : Simcore.Histogram.t;
}

type t

val create :
  sim:Simcore.Sim.t ->
  rng:Simcore.Rng.t ->
  net:Storage.Protocol.t Simnet.Net.t ->
  my_addr:Simnet.Addr.t ->
  strategy:strategy ->
  ?obs:Obs.Ctx.t ->
  ?obs_labels:Obs.Registry.labels ->
  unit ->
  t
(** [obs] registers the [read_*] counters (hedges included) and latency
    histogram.  [obs_labels] distinguishes readers sharing one
    registry (e.g. [("node", ...)] on a replica's reader, so it does not
    supersede the writer's).  A reader rebuilt after crash recovery
    re-registers under the same identity, superseding the dead instance's
    callbacks. *)

val read :
  t ->
  pg:Storage.Pg_id.t ->
  candidates:(Member_id.t * Simnet.Addr.t) list ->
  block:Block_id.t ->
  as_of:Lsn.t ->
  epochs:Storage.Protocol.epochs ->
  callback:((Storage.Protocol.block_image, string) result -> unit) ->
  unit
(** Fetch a block image at [as_of] from one of [candidates] — the segments
    the consistency tracker knows hold it durably.  The callback fires
    exactly once. *)

val on_reply :
  t ->
  req:int ->
  seg:Member_id.t ->
  from:Simnet.Addr.t ->
  result:(Storage.Protocol.block_image, Storage.Protocol.read_error) result ->
  unit
(** Feed a [Read_reply] delivered to the owner's address. *)

val observed_latency : t -> Simnet.Addr.t -> float option
(** Current EWMA estimate (ns) for a node, if any observations exist. *)

val metrics : t -> metrics
val outstanding : t -> int
val drop_all : t -> unit
(** Crash: forget in-flight reads (their callbacks never fire). *)
