(** Per-record commit-path stage tracking.

    Components [mark] each record (by LSN) as it crosses a commit {!stage};
    this module keeps a bounded table of per-LSN stage timelines and
    folds every observed transition into per-stage latency histograms
    registered as ["commit_stage_ns"] with a ["stage"] label of the form
    ["a→b"] in the shared {!Registry}.

    Two transitions are always recorded in addition to the
    nearest-preceding-stage pair, because they carry the paper's headline
    decomposition (§2.3): [boxcar_flushed→node_acked] (network + storage
    foreground) and [vcl_advanced→commit_acked] (commit-queue drain).

    Marks are idempotent per (LSN, stage): only the first time is kept, so
    a record flushed to six segments gets one [Boxcar_flushed] and its
    first covering ack one [Node_acked].  Timelines are evicted
    oldest-first beyond [capacity]; marks on evicted or never-allocated
    LSNs are dropped.  The timelines are the whole record of a commit's
    stages: nothing is pushed to the flight recorder, whose [Commit_submit]
    and [Commit_ack] events bracket the same journey per transaction. *)

(** The stages follow one log record through the write pipeline
    (§2.2-2.3 of the paper):

    [Lsn_allocated → Boxcar_flushed → Net_sent → Node_acked →
     Pgcl_advanced → Vcl_advanced → Vdl_advanced → Commit_acked] *)
type stage =
  | Lsn_allocated  (** Redo record created, LSN assigned. *)
  | Boxcar_flushed  (** Boxcar batch containing the record flushed. *)
  | Net_sent  (** Write_batch handed to the network. *)
  | Node_acked  (** First storage-node ack covering the record. *)
  | Pgcl_advanced  (** Write quorum met: group durable point covers it. *)
  | Vcl_advanced  (** Volume-complete LSN covers it. *)
  | Vdl_advanced  (** Volume-durable LSN covers it. *)
  | Commit_acked  (** Commit queue acknowledged the client (SCN <= VCL). *)

val n_stages : int
val stage_index : stage -> int
val stage_of_index : int -> stage
val stage_name : stage -> string

type t

val create : ?capacity:int -> registry:Registry.t -> unit -> t
(** [capacity] bounds live per-LSN timelines (default 16384). *)

val mark :
  t ->
  at:Simcore.Time_ns.t ->
  lsn:int ->
  ?pg:int ->
  stage ->
  unit
(** [pg] tags the record's protection group on its timeline; the first
    non-negative value seen for an LSN is latched (call sites deep in the
    volume core don't all know it). *)

val live_timelines : t -> int

val timelines : t -> (int * int * Simcore.Time_ns.t array) list
(** Live per-LSN timelines as [(lsn, pg, stage_times)], sorted by LSN;
    [stage_times] is indexed by {!stage_index} with [-1] for stages
    not (yet) observed, [pg = -1] when never learned.  Basis for the
    Chrome-trace exporter. *)

val clear : t -> unit
(** Drop all in-flight timelines (instance crash); histograms persist. *)

val stage_label : stage -> stage -> string
(** ["a→b"], the ["stage"] label value used in the registry. *)
