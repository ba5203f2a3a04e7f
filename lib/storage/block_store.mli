(** Materialized data blocks with non-destructive versioning.

    Full segments coalesce redo into block images (Figure 2, step 5).
    "Aurora blocks are written out-of-place and non-destructively" (§3.4):
    every key in a block carries a chain of versions tagged with the LSN and
    transaction that wrote them, so any reader — writer instance or lagging
    replica — can reconstruct the block as of any LSN at or above the
    garbage-collection floor (PGMRPL).

    The store also keeps a per-block checksum over the newest versions,
    giving the scrubber (Figure 2, step 8) something to verify, and a
    corruption hook for fault-injection tests.

    Invariant: every version chain is newest first, with strictly
    descending LSNs.  {!apply} keeps it because a block's records arrive
    in ascending LSN order; {!load_snapshot} takes chains already in that
    order; {!gc} and {!rollback_above} only cut chains.  {!block_as_of}
    relies on it. *)

type version = {
  value : string option;  (** [None] encodes a delete. *)
  txn : Wal.Txn_id.t;
  lsn : Wal.Lsn.t;
}

type t

val create : unit -> t

val apply : t -> Wal.Log_record.t -> unit
(** Apply one redo record.  Records for a given block must be applied in
    block-chain (ascending LSN) order; commit/abort/noop records are
    ignored here (transaction status lives at the database tier).

    Cost: O(1) expected, independent of the block's size — the block
    checksum moves by the old and new newest-version digests.  The first
    write to a block after {!corrupt} recomputes it instead, O(keys in the
    block). *)

val applied_upto : t -> Wal.Lsn.t
(** Highest LSN applied so far. *)

val versions : t -> Wal.Block_id.t -> key:string -> version list
(** Version chain for a key, newest first; [] if unknown. *)

val read_at :
  t ->
  Wal.Block_id.t ->
  key:string ->
  as_of:Wal.Lsn.t ->
  exclude:Wal.Txn_id.Set.t ->
  version option
(** MVCC read: the newest version with [lsn <= as_of] whose writing
    transaction is not in [exclude] (the read view's active/aborted set).
    This is the storage half of snapshot isolation; the exclusion set comes
    from the database tier. *)

val block_snapshot : t -> Wal.Block_id.t -> (string * version list) list
(** Entire block: every key with its full version chain (newest first).
    Used for full-segment repair. *)

val block_as_of :
  t -> Wal.Block_id.t -> as_of:Wal.Lsn.t -> (string * version list) list
(** The block as of [as_of]: every key with the versions at or below
    [as_of] (newest first), keys with none omitted — the image a block read
    returns.  Each chain is shared with the store, not copied: by the chain
    invariant those versions are a suffix of it. *)

val load_snapshot : t -> Wal.Block_id.t -> (string * version list) list -> unit
(** Install a block image wholesale (repair / hydration path).  Existing
    versions for the block are replaced.  Chains must be newest first with
    strictly descending LSNs, as {!block_snapshot} returns them. *)

val rollback_above : t -> Wal.Lsn.t -> int
(** Drop every version with [lsn] strictly above the bound — applied when a
    truncation range annuls records the background coalescer had already
    materialized (§2.4).  Returns versions dropped. *)

val gc :
  t -> keep_at_or_above:Wal.Lsn.t -> is_committed:(Wal.Txn_id.t -> bool) -> int
(** Drop versions superseded before the floor: for each key, every version
    older than the newest *committed* version with [lsn <= floor] is
    unreferenced by any legal read view and is collected.  Uncommitted or
    unknown-outcome versions never anchor the cut (their data below must
    survive the logical undo).  Returns versions dropped.

    Cost: O(keys holding two or more versions), plus O(versions dropped) —
    single-version keys are never visited, and a chain is rewritten only
    when something is dropped from it. *)

val blocks : t -> Wal.Block_id.t list
val version_count : t -> int
val bytes_used : t -> int

val checksum : t -> Wal.Block_id.t -> int
(** Order-independent digest of the block's current contents. *)

val corrupt : t -> Wal.Block_id.t -> bool
(** Fault injection: silently flip a stored value so the checksum no longer
    matches.  Returns [false] if the block has no data to corrupt. *)

val verify : t -> Wal.Block_id.t -> bool
(** Recompute and compare the stored checksum (the scrubber's probe). *)
