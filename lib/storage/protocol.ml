(* Wire protocol between database instances, read replicas, and storage
   nodes.  One variant covers the whole Aurora data plane so a single
   simulated network carries all traffic:

   - the asynchronous write path (Write_batch / Write_ack, §2.2-2.3),
   - direct block reads (Read_block / Read_reply, §3.1),
   - peer-to-peer gossip (Gossip_pull / Gossip_reply, Figure 2 step 4),
   - crash recovery (Scl_probe / Scl_reply / Truncate, §2.4),
   - epoch installation and membership updates (§2.4, §4.1),
   - segment repair / hydration (§4.2),
   - the PGMRPL garbage-collection floor (§3.4),
   - the writer->replica physical replication stream (§3.2-3.4).

   Baseline protocols (2PC, Paxos commit) define their own message types and
   run on their own network instances. *)

open Wal
open Quorum

(* Every data-plane request carries the client's view of both fencing
   epochs; storage nodes reject stale ones (§2.4, §4.1). *)
type epochs = { volume : Epoch.t; membership : Epoch.t }

type reject_reason =
  | Stale_volume_epoch of Epoch.t (* current *)
  | Stale_membership_epoch of Epoch.t
  | Not_a_member

type read_error =
  | Rejected of reject_reason
  | Tail_segment (* tail segments store no data blocks (§4.2) *)
  | Beyond_scl of Lsn.t (* segment's SCL; caller should try another *)
  | Below_gc_floor of Lsn.t (* PGMRPL already advanced past as_of *)

(* A materialized block image: every key with its (newest-first) version
   chain at or below the requested LSN. *)
type block_image = {
  image_block : Block_id.t;
  image_as_of : Lsn.t;
  image_entries : (string * Block_store.version list) list;
}

(* One atomically applied MTR chunk of the replication stream (§3.3). *)
type mtr_chunk = { chunk_records : Log_record.t list }

type t =
  (* -- write path: instance -> storage node -- *)
  | Write_batch of {
      pg : Pg_id.t;
      seg : Member_id.t;
      records : Log_record.t list;
      pgcl : Lsn.t;
          (* the group's durable point as known by the writer: lets the
             segment bound read acceptance without any consensus round *)
      epochs : epochs;
    }
  | Write_ack of { pg : Pg_id.t; seg : Member_id.t; scl : Lsn.t }
  | Write_reject of { pg : Pg_id.t; seg : Member_id.t; reason : reject_reason }
  (* -- read path: instance/replica -> storage node -- *)
  | Read_block of {
      req : int;
      pg : Pg_id.t;
      seg : Member_id.t;
      block : Block_id.t;
      as_of : Lsn.t;
      epochs : epochs;
    }
  | Read_reply of {
      req : int;
      seg : Member_id.t;
      result : (block_image, read_error) result;
    }
  (* -- gossip: storage node <-> storage node (same PG) -- *)
  | Gossip_pull of {
      pg : Pg_id.t;
      from_seg : Member_id.t;
      scl : Lsn.t;
      epochs : epochs;
    }
  | Gossip_reply of { pg : Pg_id.t; records : Log_record.t list }
  (* -- crash recovery: instance -> storage node (§2.4) -- *)
  | Scl_probe of { req : int; pg : Pg_id.t; seg : Member_id.t; epochs : epochs }
  | Scl_reply of {
      req : int;
      pg : Pg_id.t;
      seg : Member_id.t;
      scl : Lsn.t;
      highest : Lsn.t;
    }
  | Truncate of {
      pg : Pg_id.t;
      seg : Member_id.t;
      above : Lsn.t;
      upto : Lsn.t;
      pgcl : Lsn.t; (* the group's recovered chain tail *)
      epochs : epochs;
    }
  | Truncate_ack of { pg : Pg_id.t; seg : Member_id.t }
  (* -- epoch installation: the "write" that changes the locks (§2.4) -- *)
  | Epoch_update of { req : int; pg : Pg_id.t; seg : Member_id.t; epochs : epochs }
  | Epoch_ack of { req : int; pg : Pg_id.t; seg : Member_id.t }
  (* -- membership: monitor/instance -> storage node (§4.1) -- *)
  | Membership_update of {
      pg : Pg_id.t;
      epoch : Epoch.t;
      peers : (Member_id.t * Simnet.Addr.t) list;
          (* full roster incl. in-flight replacements, for gossip/repair *)
    }
  (* -- repair / hydration of a fresh segment (§4.2) -- *)
  | Hydrate_pull of {
      req : int;
      pg : Pg_id.t;
      from_seg : Member_id.t;
      since : Lsn.t;
      want_blocks : bool;
      epochs : epochs;
    }
  | Hydrate_reply of {
      req : int;
      pg : Pg_id.t;
      records : Log_record.t list;
      blocks : (Block_id.t * (string * Block_store.version list) list) list;
      scl : Lsn.t;
      coalesced : Lsn.t; (* responder's materialization point *)
      retained_from : Lsn.t; (* hot-log GC floor: no records at/below *)
      statuses : (Txn_id.t * Lsn.t * bool) list;
          (* durable txn outcomes: (txn, record LSN, is_abort) — the
             segment-materialized "transaction system" state that survives
             hot-log GC, standing in for InnoDB's txn-system pages *)
    }
  (* -- GC floor (§3.4) -- *)
  | Pgmrpl_update of {
      pg : Pg_id.t;
      seg : Member_id.t;
      floor : Lsn.t;
      pgcl : Lsn.t; (* piggybacked durable point, see Write_batch *)
    }
  (* -- physical replication stream: writer -> replica (§3.2-3.4) -- *)
  | Redo_stream of {
      chunks : mtr_chunk list;
      vdl : Lsn.t; (* writer's VDL as of send: replica apply ceiling *)
      commits : (Txn_id.t * Lsn.t) list; (* commit notifications (SCNs) *)
      volume_epoch : Epoch.t;
    }
  (* -- replica -> writer: read-point feedback for PGMRPL (§3.4) -- *)
  | Replica_feedback of { read_floor : Lsn.t }

let records_bytes records =
  List.fold_left (fun acc (r : Log_record.t) -> acc + r.size_bytes) 0 records

let image_bytes img =
  List.fold_left
    (fun acc (key, versions) ->
      List.fold_left
        (fun acc (v : Block_store.version) ->
          acc + String.length key
          + (match v.value with Some s -> String.length s | None -> 0)
          + 24)
        acc versions)
    64 img.image_entries

(* Estimated wire size, used for network byte accounting. *)
let bytes = function
  | Write_batch { records; _ } -> 64 + records_bytes records
  | Write_ack _ | Write_reject _ -> 48
  | Read_block _ -> 64
  | Read_reply { result = Ok img; _ } -> image_bytes img
  | Read_reply { result = Error _; _ } -> 48
  | Gossip_pull _ -> 48
  | Gossip_reply { records; _ } -> 64 + records_bytes records
  | Scl_probe _ -> 48
  | Scl_reply _ -> 64
  | Truncate _ | Truncate_ack _ -> 64
  | Epoch_update _ | Epoch_ack _ -> 48
  | Membership_update { peers; _ } -> 64 + (List.length peers * 16)
  | Hydrate_pull _ -> 64
  | Hydrate_reply { records; blocks; statuses; _ } ->
    64 + records_bytes records
    + (List.length statuses * 24)
    + List.fold_left
        (fun acc (block, snapshot) ->
          acc
          + image_bytes
              { image_block = block; image_as_of = Lsn.none; image_entries = snapshot })
        0 blocks
  | Pgmrpl_update _ -> 48
  | Redo_stream { chunks; commits; _ } ->
    64
    + List.fold_left (fun acc c -> acc + records_bytes c.chunk_records) 0 chunks
    + (List.length commits * 16)
  | Replica_feedback _ -> 48

(* ------------------------------------------------ flight-recorder view -- *)

(* The recorder's reduced view of a message: bare kind tag, governing PG,
   and the LSN range it carries — the payload range for record-carrying
   messages, the watermark itself otherwise ([-1] = no LSN / no PG). *)
type info = {
  kind : Recorder.Event.msg_kind;
  pg : int;
  lsn_lo : int;
  lsn_hi : int;
}

let lsn_image lsn = if Lsn.is_none lsn then -1 else Lsn.to_int lsn

let record_range records =
  match Log_record.lsn_range records with
  | None -> (-1, -1)
  | Some (lo, hi) -> (lsn_image lo, lsn_image hi)

let point lsn =
  let v = lsn_image lsn in
  (v, v)

let describe msg =
  let mk kind p (lsn_lo, lsn_hi) = { kind; pg = p; lsn_lo; lsn_hi } in
  let no_pg = -1 in
  match msg with
  | Write_batch { pg; records; _ } ->
    mk Recorder.Event.Write_batch (Pg_id.to_int pg) (record_range records)
  | Write_ack { pg; scl; _ } ->
    mk Recorder.Event.Write_ack (Pg_id.to_int pg) (point scl)
  | Write_reject { pg; _ } ->
    mk Recorder.Event.Write_reject (Pg_id.to_int pg) (-1, -1)
  | Read_block { pg; as_of; _ } ->
    mk Recorder.Event.Read_block (Pg_id.to_int pg) (point as_of)
  | Read_reply _ -> mk Recorder.Event.Read_reply no_pg (-1, -1)
  | Gossip_pull { pg; scl; _ } ->
    mk Recorder.Event.Gossip_pull (Pg_id.to_int pg) (point scl)
  | Gossip_reply { pg; records } ->
    mk Recorder.Event.Gossip_reply (Pg_id.to_int pg) (record_range records)
  | Scl_probe { pg; _ } -> mk Recorder.Event.Scl_probe (Pg_id.to_int pg) (-1, -1)
  | Scl_reply { pg; scl; highest; _ } ->
    mk Recorder.Event.Scl_reply (Pg_id.to_int pg)
      (lsn_image scl, lsn_image highest)
  | Truncate { pg; above; upto; _ } ->
    mk Recorder.Event.Truncate (Pg_id.to_int pg)
      (lsn_image above, lsn_image upto)
  | Truncate_ack { pg; _ } ->
    mk Recorder.Event.Truncate_ack (Pg_id.to_int pg) (-1, -1)
  | Epoch_update { pg; _ } ->
    mk Recorder.Event.Epoch_update (Pg_id.to_int pg) (-1, -1)
  | Epoch_ack { pg; _ } -> mk Recorder.Event.Epoch_ack (Pg_id.to_int pg) (-1, -1)
  | Membership_update { pg; _ } ->
    mk Recorder.Event.Membership_update (Pg_id.to_int pg) (-1, -1)
  | Hydrate_pull { pg; since; _ } ->
    mk Recorder.Event.Hydrate_pull (Pg_id.to_int pg) (point since)
  | Hydrate_reply { pg; records; scl; _ } ->
    let range =
      match records with [] -> point scl | _ -> record_range records
    in
    mk Recorder.Event.Hydrate_reply (Pg_id.to_int pg) range
  | Pgmrpl_update { pg; floor; _ } ->
    mk Recorder.Event.Pgmrpl_update (Pg_id.to_int pg) (point floor)
  | Redo_stream { chunks; vdl; _ } ->
    let records = List.concat_map (fun c -> c.chunk_records) chunks in
    let range =
      match records with [] -> point vdl | _ -> record_range records
    in
    mk Recorder.Event.Redo_stream no_pg range
  | Replica_feedback { read_floor } ->
    mk Recorder.Event.Replica_feedback no_pg (point read_floor)

let pp_reject_reason fmt = function
  | Stale_volume_epoch e -> Format.fprintf fmt "stale volume epoch (current %a)" Epoch.pp e
  | Stale_membership_epoch e ->
    Format.fprintf fmt "stale membership epoch (current %a)" Epoch.pp e
  | Not_a_member -> Format.pp_print_string fmt "not a member"

let pp_read_error fmt = function
  | Rejected r -> pp_reject_reason fmt r
  | Tail_segment -> Format.pp_print_string fmt "tail segment"
  | Beyond_scl scl -> Format.fprintf fmt "beyond SCL %a" Lsn.pp scl
  | Below_gc_floor f -> Format.fprintf fmt "below GC floor %a" Lsn.pp f
