open Simcore
open Wal
open Quorum
module Protocol = Storage.Protocol
module Pg_id = Storage.Pg_id

type config = {
  n_blocks : int;
  cache_capacity : int;
  boxcar : Boxcar.policy;
  read_strategy : Reader.strategy;
  replication_interval : Time_ns.t;
  pgmrpl_interval : Time_ns.t;
}

let default_config =
  {
    n_blocks = 256;
    cache_capacity = 128;
    boxcar = Boxcar.First_record (Time_ns.us 20);
    read_strategy =
      Reader.Direct_tracked
        { hedge_after = Some (Time_ns.ms 2); explore_probability = 0.02 };
    replication_interval = Time_ns.ms 5;
    pgmrpl_interval = Time_ns.ms 200;
  }

type metrics = {
  commit_latency : Histogram.t;
  record_durable_latency : Histogram.t;
  mutable txns_started : int;
  mutable txns_committed : int;
  mutable txns_aborted : int;
  mutable commit_acks : int;
  mutable puts : int;
  mutable deletes : int;
  mutable gets : int;
  mutable cache_hit_reads : int;
  mutable storage_reads : int;
  mutable records_written : int;
  mutable write_rejects : int;
  mutable fenced : int;
}

let fresh_metrics () =
  {
    commit_latency = Histogram.create ();
    record_durable_latency = Histogram.create ();
    txns_started = 0;
    txns_committed = 0;
    txns_aborted = 0;
    commit_acks = 0;
    puts = 0;
    deletes = 0;
    gets = 0;
    cache_hit_reads = 0;
    storage_reads = 0;
    records_written = 0;
    write_rejects = 0;
    fenced = 0;
  }

type t = {
  sim : Sim.t;
  rng : Rng.t;
  net : Protocol.t Simnet.Net.t;
  addr : Simnet.Addr.t;
  volume : Volume.t;
  config : config;
  metrics : metrics;
  obs : Obs.Ctx.t;
  recorder : Recorder.Rings.t;
  (* commit-path tracing bookkeeping: per-group LSNs awaiting their first
     storage ack, and LSNs awaiting VDL coverage, both in submit order *)
  obs_unacked : Lsn.t Queue.t Pg_id.Tbl.t;
  obs_vdl_pending : Lsn.t Queue.t;
  mutable consistency : Consistency.t;
  mutable cache : Buffer_cache.t;
  mutable txns : Txn_table.t;
  mutable commit_queue : Commit_queue.t;
  mutable reader : Reader.t;
  boxcars : (int * int, Boxcar.t) Hashtbl.t; (* (pg, seg) -> boxcar *)
  txn_last_block : Block_id.t Txn_id.Tbl.t;
  mutable mtr_counter : int;
  (* replication *)
  mutable replica_addrs : Simnet.Addr.t list;
  stream_queue : Log_record.t Queue.t;
  mutable last_commit_shipped : Lsn.t;
  replica_floors : Lsn.t Simnet.Addr.Tbl.t;
  (* active read views, for PGMRPL: as_of -> refcount *)
  active_views : (int, int) Hashtbl.t;
  (* durable-latency bookkeeping: (lsn, written_at) in order *)
  inflight_records : (Lsn.t * Time_ns.t) Queue.t;
  (* The epoch this instance presents on requests.  Deliberately a cached
     copy of the volume metadata: a fenced-out instance keeps its stale
     value and gets rejected, even though the metadata object is shared
     in-process (§2.4). *)
  mutable my_volume_epoch : Epoch.t;
  mutable open_ : bool;
  mutable generation : int;
  mutable recovering : Recovery.t option;
}

let sim t = t.sim
let addr t = t.addr
let obs t = t.obs

let mark_stage t ~lsn ?pg stage =
  Obs.Commit_path.mark (Obs.Ctx.commit_path t.obs) ~at:(Sim.now t.sim)
    ~lsn:(Lsn.to_int lsn) ?pg stage

(* Flight-recorder hook point; callers gate on [recording] so a recorder
   that is off costs one field read and no allocation. *)
let recording t = Recorder.Rings.enabled t.recorder

let rec_note t ev =
  Recorder.Rings.note t.recorder ~node:(Simnet.Addr.to_int t.addr)
    ~at:(Sim.now t.sim) ev
let volume t = t.volume
let config t = t.config
let consistency t = t.consistency
let reader t = t.reader
let metrics t = t.metrics
let cache t = t.cache
let txn_table t = t.txns
let is_open t = t.open_
let vcl t = Consistency.vcl t.consistency
let vdl t = Consistency.vdl t.consistency
let commit_queue_depth t = Commit_queue.pending t.commit_queue

let mean_batch_size t =
  let batches = ref 0 and records = ref 0 in
  Hashtbl.iter
    (fun _ b ->
      batches := !batches + Boxcar.batches_flushed b;
      records := !records + Boxcar.records_flushed b)
    t.boxcars;
  if !batches = 0 then 0. else float_of_int !records /. float_of_int !batches

let block_of_key t key =
  Block_id.of_int (Bits.fnv1a_string key mod t.config.n_blocks)

let send t ~dst msg =
  Simnet.Net.send t.net ~src:t.addr ~dst ~bytes:(Protocol.bytes msg) msg

(* Requests carry this instance's cached volume epoch, not the live shared
   metadata value — see [my_volume_epoch]. *)
let epochs_for t (g : Volume.pg) =
  {
    Protocol.volume = t.my_volume_epoch;
    membership = Membership.epoch g.Volume.membership;
  }

(* ---- consistency hooks ---- *)

let install_consistency_hooks t =
  let c = t.consistency in
  Consistency.on_record_durable c (fun _pg lsn ->
      mark_stage t ~lsn Obs.Commit_path.Pgcl_advanced);
  Consistency.on_vcl_advance c (fun new_vcl ->
      (* Recorded before the commit queue drains so a commit ack's recorder
         event always follows the VCL advance that released it. *)
      if recording t then
        rec_note t (Recorder.Event.Vcl_advance { vcl = Lsn.to_int new_vcl });
      (* Newly covered records are marked [Vcl_advanced] before the commit
         queue drains, so a commit ack always sees its record's VCL stage
         time — [vcl_advanced→commit_acked] is a marquee span. *)
      let continue = ref true in
      while !continue do
        match Queue.peek_opt t.inflight_records with
        | Some (lsn, at) when Lsn.(lsn <= new_vcl) ->
          ignore (Queue.pop t.inflight_records : Lsn.t * Time_ns.t);
          Histogram.record_span t.metrics.record_durable_latency at
            (Sim.now t.sim);
          mark_stage t ~lsn Obs.Commit_path.Vcl_advanced
        | Some _ | None -> continue := false
      done;
      ignore (Commit_queue.drain t.commit_queue ~vcl:new_vcl : int));
  Consistency.on_vdl_advance c (fun new_vdl ->
      if recording t then
        rec_note t (Recorder.Event.Vdl_advance { vdl = Lsn.to_int new_vdl });
      let continue = ref true in
      while !continue do
        match Queue.peek_opt t.obs_vdl_pending with
        | Some lsn when Lsn.(lsn <= new_vdl) ->
          ignore (Queue.pop t.obs_vdl_pending : Lsn.t);
          mark_stage t ~lsn Obs.Commit_path.Vdl_advanced
        | Some _ | None -> continue := false
      done;
      (* Newly durable redo may unpin dirty blocks: apply cache pressure. *)
      Buffer_cache.evict_pressure t.cache ~vdl:new_vdl)

let fresh_consistency t =
  let c = Consistency.create () in
  List.iter
    (fun (g : Volume.pg) ->
      Consistency.register_pg c g.Volume.id
        ~write_quorum:(Volume.rule g).Quorum_set.Rule.write)
    (Volume.pgs t.volume);
  t.consistency <- c;
  install_consistency_hooks t

(* ---- write path ---- *)

let boxcar_for t (g : Volume.pg) seg =
  let key = (Pg_id.to_int g.Volume.id, Member_id.to_int seg) in
  match Hashtbl.find_opt t.boxcars key with
  | Some b -> b
  | None ->
    let b =
      Boxcar.create ~sim:t.sim ~policy:t.config.boxcar ~flush:(fun records ->
          if t.open_ then begin
            List.iter
              (fun (r : Log_record.t) ->
                mark_stage t ~lsn:r.lsn Obs.Commit_path.Boxcar_flushed)
              records;
            match Member_id.Map.find_opt seg g.Volume.addr_of with
            | None -> ()
            | Some dst ->
              send t ~dst
                (Protocol.Write_batch
                   {
                     pg = g.Volume.id;
                     seg;
                     records;
                     pgcl = Consistency.pgcl t.consistency g.Volume.id;
                     epochs = epochs_for t g;
                   });
              List.iter
                (fun (r : Log_record.t) ->
                  mark_stage t ~lsn:r.lsn Obs.Commit_path.Net_sent)
                records
          end)
    in
    Hashtbl.add t.boxcars key b;
    b

let obs_unacked_queue t pg =
  match Pg_id.Tbl.find_opt t.obs_unacked pg with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Pg_id.Tbl.add t.obs_unacked pg q;
    q

let submit_record t (record : Log_record.t) (g : Volume.pg) =
  Consistency.note_submitted t.consistency ~pg:g.Volume.id ~lsn:record.lsn
    ~mtr_end:record.mtr_end;
  mark_stage t ~lsn:record.lsn ~pg:(Pg_id.to_int g.Volume.id) Obs.Commit_path.Lsn_allocated;
  Queue.push record.lsn (obs_unacked_queue t g.Volume.id);
  Queue.push record.lsn t.obs_vdl_pending;
  Buffer_cache.apply t.cache record ~vdl:(vdl t);
  Queue.push record t.stream_queue;
  Queue.push (record.lsn, Sim.now t.sim) t.inflight_records;
  t.metrics.records_written <- t.metrics.records_written + 1;
  (* Fan out to every member of the group; the quorum set decides when the
     record counts as durable. *)
  List.iter
    (fun (seg, _) -> Boxcar.add (boxcar_for t g seg) record)
    (Volume.roster g)

let write_op t ~txn ~mtr_id ~mtr_end ~block ~op =
  let record, g = Volume.make_record t.volume ~block ~txn ~mtr_id ~mtr_end ~op in
  submit_record t record g;
  record

let next_mtr t =
  t.mtr_counter <- t.mtr_counter + 1;
  t.mtr_counter

let require_open t = if not t.open_ then failwith "database instance is not open"

let begin_txn t =
  require_open t;
  t.metrics.txns_started <- t.metrics.txns_started + 1;
  Txn_table.begin_txn t.txns

let put t ~txn ~key ~value =
  require_open t;
  t.metrics.puts <- t.metrics.puts + 1;
  let block = block_of_key t key in
  let record =
    write_op t ~txn ~mtr_id:(next_mtr t) ~mtr_end:true ~block
      ~op:(Log_record.Put { key; value })
  in
  Txn_id.Tbl.replace t.txn_last_block txn record.block

let delete t ~txn ~key =
  require_open t;
  t.metrics.deletes <- t.metrics.deletes + 1;
  let block = block_of_key t key in
  let record =
    write_op t ~txn ~mtr_id:(next_mtr t) ~mtr_end:true ~block
      ~op:(Log_record.Delete { key })
  in
  Txn_id.Tbl.replace t.txn_last_block txn record.block

let put_multi t ~txn kvs =
  require_open t;
  match kvs with
  | [] -> ()
  | kvs ->
    let mtr_id = next_mtr t in
    let n = List.length kvs in
    List.iteri
      (fun i (key, value) ->
        t.metrics.puts <- t.metrics.puts + 1;
        let block = block_of_key t key in
        let record =
          write_op t ~txn ~mtr_id ~mtr_end:(i = n - 1) ~block
            ~op:(Log_record.Put { key; value })
        in
        Txn_id.Tbl.replace t.txn_last_block txn record.block)
      kvs

(* ---- read path ---- *)

let track_view t as_of =
  let k = Lsn.to_int as_of in
  let n = match Hashtbl.find_opt t.active_views k with Some n -> n | None -> 0 in
  Hashtbl.replace t.active_views k (n + 1)

let untrack_view t as_of =
  let k = Lsn.to_int as_of in
  match Hashtbl.find_opt t.active_views k with
  | Some 1 | None -> Hashtbl.remove t.active_views k
  | Some n -> Hashtbl.replace t.active_views k (n - 1)

let min_active_view t =
  Hashtbl.fold
    (fun k _ acc -> Lsn.min acc (Lsn.of_int k))
    t.active_views (vdl t)

let commit_scn_of t txn = Txn_table.commit_scn t.txns txn

let full_candidates t (g : Volume.pg) ~as_of =
  (* A segment holds everything needed for a read at [as_of] once its SCL
     reaches the last group record at or below [as_of], which is bounded by
     min(as_of, PGCL) — see Segment.read_block. *)
  let needed = Lsn.min as_of (Consistency.pgcl t.consistency g.Volume.id) in
  let covering =
    Consistency.segments_at_or_above t.consistency ~pg:g.Volume.id ~lsn:needed
  in
  List.filter
    (fun (seg, _) ->
      (* A read that needs nothing durable (fresh volume) is served by any
         full segment; otherwise the segment's SCL must cover it. *)
      (Lsn.is_none needed || Member_id.Set.mem seg covering)
      &&
      match Membership.find_member g.Volume.membership seg with
      | Some m -> m.Membership.kind = Membership.Full
      | None -> false)
    (Volume.roster g)

let get t ?txn ~key callback =
  require_open t;
  t.metrics.gets <- t.metrics.gets + 1;
  let block = block_of_key t key in
  let as_of = vdl t in
  let view = Read_view.make ~as_of ?owner:txn () in
  let commit_scn = commit_scn_of t in
  let from_storage () =
    t.metrics.storage_reads <- t.metrics.storage_reads + 1;
    let g = Volume.pg_of_block t.volume block in
    let candidates = full_candidates t g ~as_of in
    track_view t as_of;
    Reader.read t.reader ~pg:g.Volume.id ~candidates ~block ~as_of
      ~epochs:(epochs_for t g) ~callback:(fun result ->
        untrack_view t as_of;
        match result with
        | Error e -> callback (Error e)
        | Ok img ->
          Buffer_cache.install t.cache img ~vdl:(vdl t);
          (* Serve from the merged cache entry so locally written versions
             newer than the image are not shadowed. *)
          let chain =
            match Buffer_cache.read t.cache block ~key with
            | Buffer_cache.Hit chain | Buffer_cache.Partial chain -> chain
            | Buffer_cache.Miss -> (
              match
                List.find_opt (fun (k, _) -> String.equal k key) img.image_entries
              with
              | Some (_, versions) -> versions
              | None -> [])
          in
          callback (Ok (Read_view.value view ~commit_scn chain)))
  in
  match Buffer_cache.read t.cache block ~key with
  | Buffer_cache.Hit chain ->
    t.metrics.cache_hit_reads <- t.metrics.cache_hit_reads + 1;
    callback (Ok (Read_view.value view ~commit_scn chain))
  | Buffer_cache.Partial chain -> (
    (* Blind-write block: only trust it if a visible version exists. *)
    match Read_view.pick view ~commit_scn chain with
    | Some v ->
      Buffer_cache.note_partial_hit t.cache;
      t.metrics.cache_hit_reads <- t.metrics.cache_hit_reads + 1;
      callback (Ok v.Storage.Block_store.value)
    | None -> from_storage ())
  | Buffer_cache.Miss -> from_storage ()

(* ---- commit / abort (§2.3) ---- *)

let commit t ~txn callback =
  require_open t;
  match Txn_id.Tbl.find_opt t.txn_last_block txn with
  | None ->
    (* Read-only: nothing to make durable. *)
    Txn_table.mark_committed t.txns txn ~scn:(vdl t);
    t.metrics.txns_committed <- t.metrics.txns_committed + 1;
    t.metrics.commit_acks <- t.metrics.commit_acks + 1;
    callback (Ok ())
  | Some block ->
    let record =
      write_op t ~txn ~mtr_id:(next_mtr t) ~mtr_end:true ~block
        ~op:Log_record.Commit
    in
    let scn = record.lsn in
    Txn_table.mark_committed t.txns txn ~scn;
    t.metrics.txns_committed <- t.metrics.txns_committed + 1;
    if recording t then
      rec_note t
        (Recorder.Event.Commit_submit
           { txn = Txn_id.to_int txn; scn = Lsn.to_int scn });
    let started = Sim.now t.sim in
    Commit_queue.enqueue t.commit_queue ~txn ~scn ~on_ack:(fun () ->
        t.metrics.commit_acks <- t.metrics.commit_acks + 1;
        Histogram.record_span t.metrics.commit_latency started (Sim.now t.sim);
        mark_stage t ~lsn:scn Obs.Commit_path.Commit_acked;
        if recording t then
          rec_note t
            (Recorder.Event.Commit_ack
               { txn = Txn_id.to_int txn; scn = Lsn.to_int scn });
        callback (Ok ()))

let abort t ~txn =
  require_open t;
  t.metrics.txns_aborted <- t.metrics.txns_aborted + 1;
  (match Txn_id.Tbl.find_opt t.txn_last_block txn with
  | Some block ->
    ignore
      (write_op t ~txn ~mtr_id:(next_mtr t) ~mtr_end:true ~block
         ~op:Log_record.Abort
        : Log_record.t)
  | None -> ());
  Txn_table.mark_aborted t.txns txn

(* ---- replication stream (§3.2-3.4) ---- *)

let attach_replica t a =
  if not (List.exists (Simnet.Addr.equal a) t.replica_addrs) then
    t.replica_addrs <- a :: t.replica_addrs

let detach_replica t a =
  t.replica_addrs <- List.filter (fun x -> not (Simnet.Addr.equal x a)) t.replica_addrs;
  Simnet.Addr.Tbl.remove t.replica_floors a

let replicas t = t.replica_addrs

(* Pop stream-queue records covered by VDL and group consecutive records of
   the same MTR into atomically applied chunks (§3.3). *)
let drain_stream t =
  let limit = vdl t in
  let rec take acc =
    match Queue.peek_opt t.stream_queue with
    | Some r when Lsn.(r.Log_record.lsn <= limit) ->
      ignore (Queue.pop t.stream_queue : Log_record.t);
      take (r :: acc)
    | Some _ | None -> List.rev acc
  in
  let records = take [] in
  let rec chunk = function
    | [] -> []
    | (r : Log_record.t) :: rest ->
      let same, others =
        let rec split acc = function
          | (x : Log_record.t) :: xs when x.mtr_id = r.mtr_id ->
            split (x :: acc) xs
          | xs -> (List.rev acc, xs)
        in
        split [ r ] rest
      in
      { Protocol.chunk_records = same } :: chunk others
  in
  chunk records

let replication_tick t =
  if t.replica_addrs <> [] then begin
    let chunks = drain_stream t in
    let limit = vdl t in
    let commits =
      List.filter
        (fun (_, scn) -> Lsn.(scn <= limit))
        (Txn_table.commits_since t.txns t.last_commit_shipped)
    in
    List.iter (fun (_, scn) -> if Lsn.(scn > t.last_commit_shipped) then t.last_commit_shipped <- scn) commits;
    if chunks <> [] || commits <> [] then
      List.iter
        (fun dst ->
          send t ~dst
            (Protocol.Redo_stream
               {
                 chunks;
                 vdl = limit;
                 commits;
                 volume_epoch = t.my_volume_epoch;
               }))
        t.replica_addrs
  end

let pgmrpl_tick t =
  let floor =
    Simnet.Addr.Tbl.fold
      (fun _ f acc -> Lsn.min acc f)
      t.replica_floors (min_active_view t)
  in
  if not (Lsn.is_none floor) then
    List.iter
      (fun (g : Volume.pg) ->
        List.iter
          (fun (seg, dst) ->
            send t ~dst
              (Protocol.Pgmrpl_update
                 {
                   pg = g.Volume.id;
                   seg;
                   floor;
                   pgcl = Consistency.pgcl t.consistency g.Volume.id;
                 }))
          (Volume.roster g))
      (Volume.pgs t.volume)

(* ---- membership (§4.1) ---- *)

let broadcast_membership t pg_id =
  let g = Volume.find_pg t.volume pg_id in
  let peers = Volume.roster g in
  List.iter
    (fun (_, dst) ->
      send t ~dst
        (Protocol.Membership_update
           { pg = pg_id; epoch = Membership.epoch g.Volume.membership; peers }))
    peers

let after_membership_change t pg_id =
  let g = Volume.find_pg t.volume pg_id in
  Consistency.set_write_quorum t.consistency pg_id
    (Volume.rule g).Quorum_set.Rule.write;
  broadcast_membership t pg_id

let note_membership t pg_id phase =
  if recording t then begin
    let g = Volume.find_pg t.volume pg_id in
    rec_note t
      (Recorder.Event.Membership_change
         {
           pg = Pg_id.to_int pg_id;
           epoch = Epoch.to_int (Membership.epoch g.Volume.membership);
           phase;
         })
  end

let begin_segment_replacement t pg_id ~suspect ~replacement ~replacement_addr =
  match
    Volume.begin_membership_change t.volume pg_id ~suspect ~replacement
      ~replacement_addr
  with
  | Error _ as e -> e
  | Ok () ->
    note_membership t pg_id Recorder.Event.Change_begun;
    after_membership_change t pg_id;
    Ok ()

let commit_segment_replacement t pg_id ~suspect =
  match Volume.commit_membership_change t.volume pg_id ~suspect with
  | Error _ as e -> e
  | Ok () ->
    note_membership t pg_id Recorder.Event.Change_committed;
    after_membership_change t pg_id;
    Ok ()

let revert_segment_replacement t pg_id ~suspect =
  match Volume.revert_membership_change t.volume pg_id ~suspect with
  | Error _ as e -> e
  | Ok () ->
    note_membership t pg_id Recorder.Event.Change_reverted;
    after_membership_change t pg_id;
    Ok ()

(* ---- network handler ---- *)

let handle_message t (env : Protocol.t Simnet.Net.envelope) =
  (match t.recovering with
  | Some r when not (Recovery.is_done r) ->
    Recovery.on_message r env.msg ~from:env.src
  | Some _ | None -> ());
  if t.open_ then
    match env.msg with
    | Protocol.Write_ack { pg; seg; scl } ->
      (* First covering ack per record: pop in submit order up to the
         acked SCL.  Later (or reordered lower) acks find the queue
         already drained past them — [Node_acked] is first-ack time. *)
      (match Pg_id.Tbl.find_opt t.obs_unacked pg with
      | None -> ()
      | Some q ->
        let continue = ref true in
        while !continue do
          match Queue.peek_opt q with
          | Some lsn when Lsn.(lsn <= scl) ->
            ignore (Queue.pop q : Lsn.t);
            mark_stage t ~lsn ~pg:(Pg_id.to_int pg) Obs.Commit_path.Node_acked
          | Some _ | None -> continue := false
        done);
      Consistency.note_ack t.consistency ~pg ~seg ~scl
    | Protocol.Write_reject { reason; _ } -> (
      t.metrics.write_rejects <- t.metrics.write_rejects + 1;
      match reason with
      | Protocol.Stale_volume_epoch current ->
        (* A newer writer fenced us out: stop serving immediately. *)
        t.metrics.fenced <- t.metrics.fenced + 1;
        t.open_ <- false;
        if recording t then
          rec_note t (Recorder.Event.Fenced { epoch = Epoch.to_int current })
      | Protocol.Stale_membership_epoch _ | Protocol.Not_a_member -> ())
    | Protocol.Read_reply { req; seg; result } ->
      Reader.on_reply t.reader ~req ~seg ~from:env.src ~result
    | Protocol.Replica_feedback { read_floor } ->
      Simnet.Addr.Tbl.replace t.replica_floors env.src read_floor
    | Protocol.Write_batch _ | Protocol.Read_block _ | Protocol.Gossip_pull _
    | Protocol.Gossip_reply _ | Protocol.Scl_probe _ | Protocol.Scl_reply _
    | Protocol.Truncate _ | Protocol.Truncate_ack _ | Protocol.Epoch_update _
    | Protocol.Epoch_ack _ | Protocol.Membership_update _
    | Protocol.Hydrate_pull _ | Protocol.Hydrate_reply _
    | Protocol.Pgmrpl_update _ | Protocol.Redo_stream _ ->
      ()

(* ---- lifecycle ---- *)

let start_background t =
  let gen = t.generation in
  Sim.every t.sim ~interval:t.config.replication_interval (fun () ->
      if t.open_ && t.generation = gen then begin
        replication_tick t;
        true
      end
      else false);
  Sim.every t.sim ~interval:t.config.pgmrpl_interval (fun () ->
      if t.open_ && t.generation = gen then begin
        pgmrpl_tick t;
        true
      end
      else false)

let register_instruments t =
  let reg = Obs.Ctx.registry t.obs in
  let m = t.metrics in
  let c ?labels name f = Obs.Registry.counter_fn reg ?labels name f in
  c "db_txns_started" (fun () -> m.txns_started);
  c "db_txns_committed" (fun () -> m.txns_committed);
  c "db_txns_aborted" (fun () -> m.txns_aborted);
  c "db_commit_acks" (fun () -> m.commit_acks);
  c "db_puts" (fun () -> m.puts);
  c "db_deletes" (fun () -> m.deletes);
  c "db_gets" (fun () -> m.gets);
  c "db_cache_hit_reads" (fun () -> m.cache_hit_reads);
  c "db_storage_reads" (fun () -> m.storage_reads);
  c "db_records_written" (fun () -> m.records_written);
  c "db_write_rejects" (fun () -> m.write_rejects);
  c "db_fenced" (fun () -> m.fenced);
  c "db_vcl" (fun () -> Lsn.to_int (Consistency.vcl t.consistency));
  c "db_vdl" (fun () -> Lsn.to_int (Consistency.vdl t.consistency));
  Obs.Registry.gauge_fn reg "db_mean_batch_size" (fun () -> mean_batch_size t);
  Obs.Registry.histogram_ref reg "db_commit_latency_ns" m.commit_latency;
  Obs.Registry.histogram_ref reg "db_record_durable_latency_ns"
    m.record_durable_latency;
  List.iter
    (fun (g : Volume.pg) ->
      let pg = g.Volume.id in
      c "pg_pgcl"
        ~labels:[ ("pg", string_of_int (Pg_id.to_int pg)) ]
        (fun () -> Lsn.to_int (Consistency.pgcl t.consistency pg)))
    (Volume.pgs t.volume)

let create ~sim ~rng ~net ~addr ~volume ~config ?obs ?recorder () =
  let obs = match obs with Some o -> o | None -> Obs.Ctx.create () in
  let recorder =
    match recorder with Some r -> r | None -> Recorder.Rings.create ()
  in
  let t =
    {
      sim;
      rng;
      net;
      addr;
      volume;
      config;
      metrics = fresh_metrics ();
      obs;
      recorder;
      obs_unacked = Pg_id.Tbl.create 8;
      obs_vdl_pending = Queue.create ();
      consistency = Consistency.create ();
      cache = Buffer_cache.create ~capacity:config.cache_capacity;
      txns = Txn_table.create ();
      commit_queue = Commit_queue.create ();
      reader =
        Reader.create ~sim ~rng:(Rng.split rng) ~net ~my_addr:addr
          ~strategy:config.read_strategy ~obs ();
      boxcars = Hashtbl.create 64;
      txn_last_block = Txn_id.Tbl.create 256;
      mtr_counter = 0;
      replica_addrs = [];
      stream_queue = Queue.create ();
      last_commit_shipped = Lsn.none;
      replica_floors = Simnet.Addr.Tbl.create 4;
      active_views = Hashtbl.create 16;
      inflight_records = Queue.create ();
      my_volume_epoch = Volume.volume_epoch volume;
      open_ = false;
      generation = 0;
      recovering = None;
    }
  in
  fresh_consistency t;
  register_instruments t;
  t

let start t =
  t.my_volume_epoch <- Volume.volume_epoch t.volume;
  t.open_ <- true;
  t.generation <- t.generation + 1;
  Simnet.Net.register t.net t.addr (handle_message t);
  Simnet.Net.set_up t.net t.addr;
  if recording t then rec_note t Recorder.Event.Started;
  List.iter (fun pg -> broadcast_membership t pg.Volume.id) (Volume.pgs t.volume);
  start_background t

let crash t =
  if recording t then rec_note t Recorder.Event.Crashed;
  t.open_ <- false;
  t.generation <- t.generation + 1;
  Simnet.Net.set_down t.net t.addr;
  (* All of this is ephemeral instance state — losing it is safe by
     design; recovery rebuilds it from storage (§2.4). *)
  Buffer_cache.drop_all t.cache;
  ignore (Commit_queue.drop_all t.commit_queue : (Txn_id.t * Lsn.t) list);
  Reader.drop_all t.reader;
  Hashtbl.reset t.boxcars;
  Queue.clear t.stream_queue;
  Queue.clear t.inflight_records;
  Pg_id.Tbl.reset t.obs_unacked;
  Queue.clear t.obs_vdl_pending;
  Obs.Commit_path.clear (Obs.Ctx.commit_path t.obs);
  Hashtbl.reset t.active_views;
  Txn_id.Tbl.reset t.txn_last_block

let rebuild_from_outcome t (o : Recovery.outcome) =
  t.my_volume_epoch <- Volume.volume_epoch t.volume;
  Volume.restore_tails t.volume ~alloc_above:o.truncate_upto
    ~volume_tail:o.vcl ~pg_tails:o.pg_tails ~block_tails:o.block_tails;
  fresh_consistency t;
  Consistency.restore t.consistency ~vcl:o.vcl ~vdl:o.vdl ~pg_points:o.pg_tails;
  List.iter
    (fun (pg, seg, scl) -> Consistency.note_ack t.consistency ~pg ~seg ~scl)
    o.scl_observations;
  t.cache <- Buffer_cache.create ~capacity:t.config.cache_capacity;
  t.txns <- Txn_table.create ();
  Txn_table.note_floor t.txns o.max_txn_seen;
  List.iter (fun (txn, scn) -> Txn_table.register t.txns txn; Txn_table.mark_committed t.txns txn ~scn) o.committed;
  List.iter (fun txn -> Txn_table.register t.txns txn; Txn_table.mark_aborted t.txns txn) o.aborted;
  (* In-flight at crash: undo happens logically — their versions are
     invisible to every read view from now on. *)
  List.iter (fun txn -> Txn_table.register t.txns txn; Txn_table.mark_aborted t.txns txn) o.interrupted;
  t.commit_queue <- Commit_queue.create ();
  t.reader <-
    Reader.create ~sim:t.sim ~rng:(Rng.split t.rng) ~net:t.net ~my_addr:t.addr
      ~strategy:t.config.read_strategy ~obs:t.obs ();
  t.last_commit_shipped <- o.vdl

let recover t on_ready =
  (* Recovery must never run against a serving instance: the §2.4 walk
     computes VCL from a point-in-time storage poll and then truncates the
     ragged edge above it, so commits acknowledged while the poll is in
     flight would be annulled — acknowledged-write loss.  An open instance
     is fenced (crashed) first, exactly as a new writer's epoch bump boxes
     out the old one. *)
  if t.open_ then crash t;
  t.generation <- t.generation + 1;
  Simnet.Net.register t.net t.addr (handle_message t);
  Simnet.Net.set_up t.net t.addr;
  if recording t then
    rec_note t
      (Recorder.Event.Recovery_start
         { epoch = Epoch.to_int (Volume.volume_epoch t.volume) });
  let r =
    Recovery.start ~sim:t.sim ~net:t.net ~my_addr:t.addr ~volume:t.volume
      ~on_done:(fun result ->
        (match result with
        | Ok outcome ->
          rebuild_from_outcome t outcome;
          t.open_ <- true;
          t.generation <- t.generation + 1;
          if recording t then begin
            rec_note t
              (Recorder.Event.Recovery_finish
                 {
                   vcl = Lsn.to_int outcome.Recovery.vcl;
                   vdl = Lsn.to_int outcome.Recovery.vdl;
                 });
            rec_note t Recorder.Event.Started
          end;
          List.iter
            (fun pg -> broadcast_membership t pg.Volume.id)
            (Volume.pgs t.volume);
          start_background t
        | Error _ -> ());
        t.recovering <- None;
        on_ready result)
      ()
  in
  t.recovering <- Some r
