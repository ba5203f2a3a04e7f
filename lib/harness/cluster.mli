(** Cluster assembly: one writer instance, protection groups of storage
    nodes spread across three AZs, optional read replicas, all on one
    simulated network with AZ-aware latency.

    This is the integration layer every experiment and end-to-end test
    builds on: it wires member ids to network addresses, seeds the
    deterministic RNG tree, and exposes fault-injection and
    membership-change orchestration (create replacement node, start
    hydration, commit or revert the change — the full Figure 5 flow). *)

open Quorum

type layout = V6 | Tiered | V3
(** Protection-group design: Aurora's 6-copy (4/6 write, 3/6 read), the
    §4.2 full/tail mix, or the Figure 1 2/3 strawman. *)

val layout_membership : layout -> Membership.t
(** A fresh protection group's initial membership in this layout: its
    roster (member ids ascending from 0, in AZ order) and quorum scheme.
    Every PG the cluster builds starts from it; E1/E10 read its roster and
    rule. *)

type config = {
  seed : int;
  n_pgs : int;
  layout : layout;
  db_config : Aurora_core.Database.config;
  storage_config : Storage.Storage_node.config;
  intra_az_latency : Simcore.Distribution.t;
  inter_az_latency : Simcore.Distribution.t;
  obs_sample_period : Simcore.Time_ns.t;
      (** Period of the observability sampler the cluster installs on the
          sim clock: each tick computes a cluster-health sample (feeding
          {!Obs.Health}, including quorum-loss edge events) and records one
          point per tracked {!Obs.Series} channel. *)
}

val default_config : config
(** seed 42, 2 PGs, V6 layout, lognormal link latencies (~250us intra-AZ,
    ~1ms inter-AZ medians), 50 ms sampling. *)

type t

val create : ?recorder_depth:int -> config -> t
(** Build and start everything; the writer is open for transactions.
    [recorder_depth] switches the cluster's flight recorder on from the
    first event, with rings of that many events per node (see
    {!Recorder.Rings.enable}); omitted, the recorder is off. *)

val sim : t -> Simcore.Sim.t
val net : t -> Storage.Protocol.t Simnet.Net.t
val db : t -> Aurora_core.Database.t
val s3 : t -> Storage.S3.t
val config : t -> config
val rng : t -> Simcore.Rng.t

val recorder : t -> Recorder.Rings.t
(** The cluster's flight recorder: one ring per node, shared by the
    network hook, the writer and every storage node, with node roles
    (writer, storage, replica) registered as the nodes are built.  Off
    unless [create] got [recorder_depth] or {!Recorder.Rings.enable} is
    called on it later; health edges land on the writer's ring. *)

val snapshot : ?where:Obs.Registry.labels -> ?trace_tail:int -> t -> Obs.Json.t
(** {!Obs.Ctx.snapshot_at} stamped with the current sim time, plus — iff
    [trace_tail] is given — ["trace"] (the last [trace_tail] recorder
    events merged across nodes, see {!Recorder.Correlate.tail}),
    ["trace_depth"] (ring depth per node) and ["trace_evicted"] (events
    the rings evicted, so a truncated timeline is visible). *)

val obs : t -> Obs.Ctx.t
(** The cluster-wide observability context: one registry shared by
    the network, the writer, every storage node, and every replica.  The
    cluster also drives the context's series sampler and health monitor
    (period [obs_sample_period]) and registers volume-level health gauges:
    [health_write_available], [health_min_write_margin],
    [health_az_plus_one], [health_vdl_vcl_gap], [health_commit_queue_depth],
    [health_max_replica_lag]. *)

val health_sample : t -> at:Simcore.Time_ns.t -> Obs.Health.sample
(** Compute one cluster-health sample now (quorum margins by exhaustive
    subset enumeration over each group's current rule, AZ+1 tolerance,
    ack-current segment counts, volume-level gaps).  The installed sampler
    calls this every [obs_sample_period]; exposed for tests and ad-hoc
    probes. *)

val last_health : t -> Obs.Health.sample option
(** Latest sample taken by the installed sampler. *)

val storage_nodes : t -> Storage.Storage_node.t list
val node_of_member :
  t -> Storage.Pg_id.t -> Member_id.t -> Storage.Storage_node.t option
val members_of_pg : t -> Storage.Pg_id.t -> Membership.member list
val az_of_addr : t -> Simnet.Addr.t -> Az.t option

val add_replica : t -> Aurora_core.Replica.t
(** Create, start and attach a read replica (placed in a non-writer AZ). *)

val replicas : t -> Aurora_core.Replica.t list

(* ---- fault injection ---- *)

val crash_storage_node : t -> Storage.Pg_id.t -> Member_id.t -> unit
(** Process crash with disks intact. *)

val restart_storage_node : t -> Storage.Pg_id.t -> Member_id.t -> unit

val destroy_storage_node : t -> Storage.Pg_id.t -> Member_id.t -> unit
(** Permanent loss of the node and its segment data. *)

val fail_az : t -> Az.t -> unit
(** Take down every storage node in an AZ (correlated failure, Figure 1). *)

val restore_az : t -> Az.t -> unit

val slow_storage_node : t -> Storage.Pg_id.t -> Member_id.t -> float -> unit
(** Multiply the node's network latency (busy / degraded node, §3.1). *)

val partition : t -> Simnet.Addr.t list -> Simnet.Addr.t list -> unit
(** Sever every link between the two address sets (both directions).  All
    processes stay alive — the one nemesis node up/down faults cannot
    model.  Drops on severed links count in
    {!Simnet.Net.stats.dropped_partition}. *)

val heal : t -> Simnet.Addr.t list -> Simnet.Addr.t list -> unit

val partition_az : t -> Az.t -> unit
(** Isolate every process in an AZ (storage nodes, plus the writer or any
    replica placed there) from the rest of the cluster. *)

val heal_az : t -> Az.t -> unit

(* ---- membership-change orchestration (Figure 5) ---- *)

val start_replacement :
  t -> Storage.Pg_id.t -> suspect:Member_id.t -> (Member_id.t, string) result
(** Provision a fresh storage node in the suspect's AZ with an empty
    segment of the suspect's kind, run the first epoch increment (dual
    quorums), push the roster, and kick off hydration from a healthy peer.
    Returns the replacement's member id. *)

val finish_replacement :
  t -> Storage.Pg_id.t -> suspect:Member_id.t -> (unit, string) result
(** Second epoch increment onto the new member set. *)

val revert_replacement :
  t -> Storage.Pg_id.t -> suspect:Member_id.t -> (unit, string) result
(** Second epoch increment back onto the original member set (the suspect
    returned); the replacement node is discarded. *)

val replacement_caught_up : t -> Storage.Pg_id.t -> replacement:Member_id.t -> bool
(** Has the hydrating segment's SCL reached the suspect-group's durable
    point? (The harness's stand-in for the repair monitor.) *)

val grow_volume : t -> Storage.Pg_id.t
(** Append a protection group (§4.1 volume-geometry change): provision six
    fresh storage nodes in the configured layout, create their segments,
    register the group with the writer's volume and consistency tracker,
    and push the roster.  New blocks immediately stripe onto it. *)

val change_scheme_3_of_4 :
  t -> Storage.Pg_id.t -> drop_az:Quorum.Az.t -> (unit, string) result
(** §4.1's extended-AZ-loss response: re-form a group on its four members
    outside [drop_az] under a 3/4 write / 2/4 read scheme (one membership
    epoch increment), so writes regain fault tolerance while the AZ is
    gone.  Only legal from a steady group. *)

(* ---- convenience ---- *)

val run_for : t -> Simcore.Time_ns.t -> unit
val run_until_quiesced : t -> unit
