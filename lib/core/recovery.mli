(** Crash recovery (§2.4, Figure 4).

    The time saved avoiding consensus on every commit is paid back here, on
    the rare crash: the recovering instance must rebuild PGCLs and VCL from
    segment-local SCL state.  The procedure:

    + bump the volume epoch locally and carry it on every request — storage
      nodes adopt the higher epoch on receipt, boxing out the old instance
      ("changing the locks on the door" instead of waiting out a lease);
    + probe every segment of every protection group for its SCL until a
      read quorum responds per group; the group's recovered durable point
      is the max SCL among responders (read/write overlap guarantees this
      covers everything a 4/6 write quorum ever acknowledged);
    + fetch retained chain records from the best segment of each group and
      recompute VCL: the highest LSN to which the volume chain links
      gaplessly through records each covered by its group's recovered
      point;
    + snip the ragged edge: install a truncation range [(VCL, upper]] at a
      write quorum of every group — in-flight writes completing later are
      annulled, and new LSNs are allocated above the range.

    No redo replay happens: segments materialize blocks on their own.
    Transactions seen in the recovered log without a commit or abort record
    at or below VCL were in flight at the crash; they are marked aborted so
    MVCC undoes them logically, "in parallel with user activity".

    The module is a self-contained async state machine: feed it storage
    replies via {!on_message}; it retries lost requests on a timer and
    reports an {!outcome} (or a timeout error) exactly once. *)

open Wal
open Quorum

type outcome = {
  vcl : Lsn.t;
  vdl : Lsn.t;
  truncate_above : Lsn.t;
  truncate_upto : Lsn.t;
  pg_tails : (Storage.Pg_id.t * Lsn.t) list;
      (** Last surviving record per group (segment-chain re-anchor). *)
  block_tails : (Block_id.t * Lsn.t) list;
  committed : (Txn_id.t * Lsn.t) list;  (** Commit records at or below VCL. *)
  aborted : Txn_id.t list;  (** Explicit abort records at or below VCL. *)
  interrupted : Txn_id.t list;
      (** In-flight at crash: to be undone via MVCC invisibility. *)
  max_txn_seen : Txn_id.t;
  scl_observations : (Storage.Pg_id.t * Member_id.t * Lsn.t) list;
      (** Post-truncation SCLs of the probed segments — the rebuilt
          instance seeds its consistency tracker with these so the read
          path knows where durable blocks live before any new write. *)
  records_examined : int;
  probes_sent : int;
  duration : Simcore.Time_ns.t;
}

type t

val start :
  sim:Simcore.Sim.t ->
  net:Storage.Protocol.t Simnet.Net.t ->
  my_addr:Simnet.Addr.t ->
  volume:Volume.t ->
  ?retry_interval:Simcore.Time_ns.t ->
  ?deadline:Simcore.Time_ns.t ->
  on_done:((outcome, string) result -> unit) ->
  unit ->
  t
(** Bumps the volume epoch on [volume] and begins probing.  [deadline]
    (default 30 s simulated) bounds the whole procedure.  The caller
    ([Database.recover]) records the start and finish in its flight
    recorder. *)

val on_message : t -> Storage.Protocol.t -> from:Simnet.Addr.t -> unit
(** Feed Scl_reply / Hydrate_reply / Truncate_ack messages addressed to
    [my_addr].  Other messages are ignored. *)

val is_done : t -> bool

(** Pure core of the VCL computation, exposed for property tests: given the
    per-group recovered points and the fetched records, return (vcl, vdl).
    [anchor] is the LSN below which the volume chain is known complete. *)
val compute_vcl :
  anchor:Lsn.t ->
  points:(Storage.Pg_id.t -> Lsn.t) ->
  pg_of:(Block_id.t -> Storage.Pg_id.t) ->
  Log_record.t list ->
  Lsn.t * Lsn.t

(** The read-quorum consistency rule, exposed for tests: max SCL among a
    responding read quorum. *)
val recovered_point : scls:(Member_id.t * Lsn.t) list -> Lsn.t
