(** Cluster-health monitor: quorum margins, availability accumulator,
    health-transition events.

    [lib/obs] knows nothing about quorum formulas or volumes, so the
    caller (in practice {!Harness.Cluster}, each sampler tick) computes a
    {!sample} from its own state — per-PG segment counts, quorum margins,
    AZ+1 tolerance, plus volume-level gaps — and feeds it to [observe].
    This module then does three generic things:

    - {e edge detection}: per PG, transitions of write-quorum satisfiability
      and AZ+1 tolerance fire exactly one {!edge} each, returned by
      [observe] (a PG never seen before is presumed healthy) — the harness
      records them in the cluster's flight recorder, on the same timeline
      as the commits and membership changes that explain them;
    - {e availability accounting}: simulated time is integrated into
      write-available vs not, using the previous sample's state over each
      inter-sample interval — [write_available_fraction] is the paper's §4
      "fraction of time the volume can take writes", computed online;
    - {e exposure}: the latest sample and the accumulators render to JSON
      for snapshots and the CLI.

    Margin conventions: [write_margin]/[read_margin] is the number of
    {e additional} currently-healthy segments whose loss the quorum still
    tolerates — 0 means exactly satisfied, [-1] means already unsatisfied.
    [az_plus_one] is the paper's §2.1 target: the read quorum survives the
    loss of one whole AZ plus one more segment. *)

type pg_sample = {
  pg : int;
  total : int;  (** Roster size (e.g. 6 for V6). *)
  reachable : int;  (** Alive segments. *)
  ack_current : int;  (** Alive segments whose durable point covers PGCL. *)
  write_margin : int;
  read_margin : int;
  az_plus_one : bool;
  epoch : int;  (** Membership epoch. *)
}

type volume_sample = {
  vdl_vcl_gap : int;  (** VCL − VDL, in LSN units. *)
  commit_queue_depth : int;
  max_replica_lag : int;  (** max over replicas of VDL − replica VDL, LSN units. *)
}

type sample = {
  at : Simcore.Time_ns.t;
  pgs : pg_sample list;
  volume : volume_sample;
}

val pg_write_ok : pg_sample -> bool
(** [write_margin >= 0]. *)

val sample_write_available : sample -> bool
(** Every PG can take writes. *)

(** Cluster-health transitions. *)
type edge =
  | Write_quorum_lost
  | Write_quorum_regained
  | Az_plus_one_lost  (** Can no longer lose an AZ + one more segment. *)
  | Az_plus_one_regained

val edge_name : edge -> string
val edge_of_name : string -> edge option
val all_edges : edge list

type t

val create : unit -> t

val observe : t -> at:Simcore.Time_ns.t -> sample -> (int * edge) list
(** Fold one sample in; returns the [(pg, edge)] transitions it fired, in
    PG order (usually none). *)

val last : t -> sample option

val write_available_fraction : t -> float
(** Fraction of observed simulated time the volume was write-available;
    [1.0] before two observations exist. *)

val observed_ns : t -> Simcore.Time_ns.t
(** Total integrated time (first to latest observation). *)

val transitions : t -> int
(** Health edges fired since creation. *)

val to_json : t -> Json.t
(** Accumulators plus, once observed, a ["current"] object with the latest
    per-PG and volume-level sample. *)
