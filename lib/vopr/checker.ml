open Simcore
module Cluster = Harness.Cluster
module Database = Aurora_core.Database
module Replica = Aurora_core.Replica
module Volume = Aurora_core.Volume
module Storage_node = Storage.Storage_node
module Segment = Storage.Segment
module Lsn = Wal.Lsn

type violation = {
  checker : string;
  at : Simcore.Time_ns.t;
  detail : string;
}

(* Per-checker detail cap: past this many occurrences only the total is
   counted, so a breach that fires every tick stays readable. *)
let detail_cap = 10

type t = {
  cluster : Cluster.t;
  sim : Sim.t;
  gen : Workload.Txn_gen.t option;
  mutable stopped : bool;
  mutable recorded : violation list;  (* reverse occurrence order *)
  mutable total : int;
  counts : (string, int) Hashtbl.t;
  (* watch state *)
  mutable max_vcl : Lsn.t;
  mutable max_vdl : Lsn.t;
  mutable was_open : bool;
  mutable seen_open : bool;
  epochs : (int, int) Hashtbl.t;  (* pg -> highest membership epoch seen *)
  replica_vdl : Lsn.t Simnet.Addr.Tbl.t;
  (* probe state *)
  mutable probe_seq : int;  (* last probe sequence issued *)
  mutable probe_acked : int;  (* highest probe sequence acknowledged *)
  replica_probe : int Simnet.Addr.Tbl.t;  (* highest seq read per replica *)
}

let probe_key = "vopr#probe"
let probe_value seq = Printf.sprintf "p%012d" seq

let probe_seq_of_value v =
  if String.length v > 1 && v.[0] = 'p' then
    int_of_string_opt (String.sub v 1 (String.length v - 1))
  else None

let note t ~checker ~detail =
  t.total <- t.total + 1;
  let seen = Option.value ~default:0 (Hashtbl.find_opt t.counts checker) in
  Hashtbl.replace t.counts checker (seen + 1);
  if seen < detail_cap then
    t.recorded <- { checker; at = Sim.now t.sim; detail } :: t.recorded

let violations t = List.rev t.recorded
let total t = t.total

(* ---- watch tick ---- *)

let lsn_str = Lsn.to_string
let addr_str a = Printf.sprintf "addr%d" (Simnet.Addr.to_int a)

let check_writer t =
  let db = Cluster.db t.cluster in
  if Database.is_open db then begin
    let vcl = Database.vcl db and vdl = Database.vdl db in
    if t.seen_open && not t.was_open then begin
      (* Reopen after a crash: recovery must re-derive a VCL covering every
         durable point we ever observed — anything less would mean an
         acknowledged commit fell out of the volume (§2.4). *)
      if Lsn.(vcl < t.max_vcl) then
        note t ~checker:"recovery-vcl-regression"
          ~detail:
            (Printf.sprintf "recovered vcl=%s below pre-crash vcl=%s"
               (lsn_str vcl) (lsn_str t.max_vcl))
    end
    else if t.was_open then begin
      if Lsn.(vcl < t.max_vcl) then
        note t ~checker:"vcl-monotone"
          ~detail:
            (Printf.sprintf "vcl regressed %s -> %s" (lsn_str t.max_vcl)
               (lsn_str vcl));
      if Lsn.(vdl < t.max_vdl) then
        note t ~checker:"vdl-monotone"
          ~detail:
            (Printf.sprintf "vdl regressed %s -> %s" (lsn_str t.max_vdl)
               (lsn_str vdl))
    end;
    if Lsn.(vdl > vcl) then
      note t ~checker:"vdl-above-vcl"
        ~detail:
          (Printf.sprintf "vdl=%s above vcl=%s" (lsn_str vdl) (lsn_str vcl));
    t.max_vcl <- Lsn.max t.max_vcl vcl;
    t.max_vdl <- Lsn.max t.max_vdl vdl;
    t.seen_open <- true;
    t.was_open <- true;
    (* PGMRPL is a GC floor derived from VDL-anchored read views, so no
       live segment may hold a floor above the writer's durable point. *)
    List.iter
      (fun node ->
        if Storage_node.is_alive node then
          List.iter
            (fun seg ->
              let floor = Segment.pgmrpl seg in
              if Lsn.(floor > vdl) then
                note t ~checker:"pgmrpl-above-vdl"
                  ~detail:
                    (Printf.sprintf "pg%d/%s pgmrpl=%s above vdl=%s"
                       (Storage.Pg_id.to_int (Segment.pg seg))
                       (Quorum.Member_id.to_string (Segment.seg_id seg))
                       (lsn_str floor) (lsn_str vdl)))
            (Storage_node.segments node))
      (Cluster.storage_nodes t.cluster);
    (* Membership epochs only ever move forward (§4: every change is an
       epoch increment; nothing decrements). *)
    List.iter
      (fun (g : Volume.pg) ->
        let pg = Storage.Pg_id.to_int g.id in
        let epoch = Quorum.Epoch.to_int (Quorum.Membership.epoch g.membership) in
        (match Hashtbl.find_opt t.epochs pg with
        | Some prev when epoch < prev ->
          note t ~checker:"epoch-regression"
            ~detail:(Printf.sprintf "pg%d epoch %d -> %d" pg prev epoch)
        | _ -> ());
        Hashtbl.replace t.epochs pg
          (Stdlib.max epoch
             (Option.value ~default:0 (Hashtbl.find_opt t.epochs pg))))
      (Volume.pgs (Database.volume db));
    (* The health monitor's own arithmetic must cohere. *)
    let sample = Cluster.health_sample t.cluster ~at:(Sim.now t.sim) in
    List.iter
      (fun (p : Obs.Health.pg_sample) ->
        let bad fmt = Printf.ksprintf (fun d -> note t ~checker:"health-consistency" ~detail:d) fmt in
        if p.reachable > p.total || p.reachable < 0 then
          bad "pg%d reachable=%d of total=%d" p.pg p.reachable p.total;
        if p.ack_current > p.reachable || p.ack_current < 0 then
          bad "pg%d ack_current=%d above reachable=%d" p.pg p.ack_current
            p.reachable;
        if p.write_margin < -1 || p.read_margin < -1 then
          bad "pg%d margins write=%d read=%d" p.pg p.write_margin p.read_margin)
      sample.pgs;
    if sample.volume.vdl_vcl_gap < 0 then
      note t ~checker:"health-consistency"
        ~detail:
          (Printf.sprintf "vdl_vcl_gap=%d negative" sample.volume.vdl_vcl_gap);
    if sample.volume.commit_queue_depth < 0 then
      note t ~checker:"health-consistency"
        ~detail:
          (Printf.sprintf "commit_queue_depth=%d negative"
             sample.volume.commit_queue_depth)
  end
  else t.was_open <- false

let check_replicas t =
  List.iter
    (fun r ->
      if Replica.is_running r then begin
        let addr = Replica.addr r in
        let seen = Replica.vdl_seen r in
        (match Simnet.Addr.Tbl.find_opt t.replica_vdl addr with
        | Some prev when Lsn.(seen < prev) ->
          note t ~checker:"replica-vdl-monotone"
            ~detail:
              (Printf.sprintf "replica %s vdl_seen %s -> %s" (addr_str addr)
                 (lsn_str prev) (lsn_str seen))
        | _ -> ());
        Simnet.Addr.Tbl.replace t.replica_vdl addr
          (Lsn.max seen
             (Option.value ~default:Lsn.none
                (Simnet.Addr.Tbl.find_opt t.replica_vdl addr)))
      end)
    (Cluster.replicas t.cluster)

(* ---- probe session ---- *)

let probe_write t =
  let db = Cluster.db t.cluster in
  if Database.is_open db then begin
    t.probe_seq <- t.probe_seq + 1;
    let seq = t.probe_seq in
    let txn = Database.begin_txn db in
    Database.put db ~txn ~key:probe_key ~value:(probe_value seq);
    Database.commit db ~txn (fun result ->
        match result with
        | Ok () -> if seq > t.probe_acked then t.probe_acked <- seq
        | Error _ -> ())
  end

let probe_read_writer t =
  let db = Cluster.db t.cluster in
  if Database.is_open db then begin
    (* Capture the floor at issue time: a commit acknowledged before this
       read was issued is covered by VDL (the commit record closes its
       MTR), so the read's view must include it — including across any
       crash/recovery in between. *)
    let floor = t.probe_acked in
    Database.get db ~key:probe_key (fun result ->
        match result with
        | Error _ -> ()
        | Ok None ->
          if floor > 0 then
            note t ~checker:"read-your-writes"
              ~detail:
                (Printf.sprintf "probe read found nothing; acked seq=%d" floor)
        | Ok (Some v) -> (
          match probe_seq_of_value v with
          | None ->
            note t ~checker:"read-your-writes"
              ~detail:(Printf.sprintf "probe read returned foreign value %S" v)
          | Some seq ->
            if seq < floor then
              note t ~checker:"read-your-writes"
                ~detail:
                  (Printf.sprintf "probe read seq=%d below acked seq=%d" seq
                     floor)))
  end

let probe_read_replica t r =
  if Replica.is_running r then begin
    let addr = Replica.addr r in
    Replica.get r ~key:probe_key (fun result ->
        match result with
        | Error _ -> ()
        | Ok None ->
          (* A replica view may predate the first probe write; only a
             regression from a previously returned value is a violation. *)
          let prev =
            Option.value ~default:0 (Simnet.Addr.Tbl.find_opt t.replica_probe addr)
          in
          if prev > 0 then
            note t ~checker:"replica-monotone-read"
              ~detail:
                (Printf.sprintf "replica %s read nothing after seq=%d"
                   (addr_str addr) prev)
        | Ok (Some v) -> (
          match probe_seq_of_value v with
          | None -> ()
          | Some seq ->
            let prev =
              Option.value ~default:0
                (Simnet.Addr.Tbl.find_opt t.replica_probe addr)
            in
            if seq < prev then
              note t ~checker:"replica-monotone-read"
                ~detail:
                  (Printf.sprintf "replica %s read seq=%d after seq=%d"
                     (addr_str addr) seq prev);
            Simnet.Addr.Tbl.replace t.replica_probe addr (Stdlib.max seq prev)))
  end

(* ---- lifecycle ---- *)

let create ~cluster ?gen ?(watch_interval = Time_ns.ms 5)
    ?(probe_interval = Time_ns.ms 25) () =
  let sim = Cluster.sim cluster in
  let t =
    {
      cluster;
      sim;
      gen;
      stopped = false;
      recorded = [];
      total = 0;
      counts = Hashtbl.create 16;
      max_vcl = Lsn.none;
      max_vdl = Lsn.none;
      was_open = false;
      seen_open = false;
      epochs = Hashtbl.create 8;
      replica_vdl = Simnet.Addr.Tbl.create 8;
      probe_seq = 0;
      probe_acked = 0;
      replica_probe = Simnet.Addr.Tbl.create 8;
    }
  in
  Sim.every sim ~interval:watch_interval (fun () ->
      if t.stopped then false
      else begin
        check_writer t;
        check_replicas t;
        true
      end);
  Sim.every sim ~interval:probe_interval (fun () ->
      if t.stopped then false
      else begin
        probe_write t;
        probe_read_writer t;
        List.iter (fun r -> probe_read_replica t r) (Cluster.replicas t.cluster);
        true
      end);
  t

let stop t = t.stopped <- true

(* ---- quiesce audit ---- *)

let quiesce_audit t =
  let db = Cluster.db t.cluster in
  (* A closed writer cannot serve the audit reads; scenarios assert
     recovery separately (expect writer_open=true). *)
  if Database.is_open db then begin
  (match t.gen with
  | None -> ()
  | Some gen ->
    (* Same oracle as the harness durability audits
       ([Txn_gen.acceptable_values]).  Keys are audited in sorted order so
       the violation list is stable. *)
    List.iter
      (fun (key, valid_values) ->
        Database.get db ~key (fun result ->
            let ok =
              match result with
              | Ok (Some v) -> List.exists (String.equal v) valid_values
              | Ok None | Error _ -> false
            in
            if not ok then
              note t ~checker:"durability"
                ~detail:
                  (Printf.sprintf "acked write to %S not readable (%s)" key
                     (match result with
                     | Ok (Some v) -> Printf.sprintf "found stale %S" v
                     | Ok None -> "found nothing"
                     | Error e -> "read error: " ^ e))))
      (Obs.Stable.sorted_bindings ~cmp:String.compare
         (Workload.Txn_gen.acceptable_values gen)));
    probe_read_writer t
  end
