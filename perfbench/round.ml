(* One round: build a cluster, optionally preload it, then offer the
   workload's open-loop arrivals (and its fault schedule) for a fixed span
   of simulated time and drain.  Only the offered window plus drain is
   wall-clock timed; building the cluster is timed separately as set-up.

   A round is a pure function of (workload, round seed): everything in its
   [sim] part is exact, so two rounds of one seed must agree to the last
   digit whatever is measured around them, traced or not. *)

open Simcore
module Cluster = Harness.Cluster
module Database = Aurora_core.Database
module Reader = Aurora_core.Reader
module Recovery = Aurora_core.Recovery
module Net = Simnet.Net
module Node = Storage.Storage_node

type mode = Plain | Traced | Checked

(* Growable int buffer for raw latency samples: percentiles are computed
   exactly from them, never from bucketed histograms. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* One client request: a transaction due at [due].  Its operations are
   drawn once, at arrival; a retry replays them with fresh values. *)
type req = {
  due : Time_ns.t;
  keys : int array;
  is_write : bool array;
  mutable first_try : bool;  (** no attempt has failed yet *)
}

type gen = {
  spec : Spec.t;
  cluster : Cluster.t;
  sim : Sim.t;
  db : Database.t;
  rng : Rng.t;
  zipf : Workload.Zipf.t;
  tracer : Tracer.t option;
  mutable issued : int;
  mutable acked : int;
  mutable first_try_acked : int;
  mutable read_errors : int;
  commit_lat : Samples.t;  (** due -> ack, transactions with writes *)
  read_lat : Samples.t;  (** get -> reply, reads served by storage *)
  commit_wait : Samples.t;  (** commit call -> ack, transactions with writes *)
  inflight : (int, req) Hashtbl.t;  (** by attempt id *)
  mutable waiting : req list;  (** refused or in doubt, newest first *)
  mutable next_attempt : int;
  mutable writes : (string * string * int) list;
      (** (key, value, attempt id) in LSN order, newest first *)
  acked_attempts : (int, unit) Hashtbl.t;
  mutable user_bytes : int;  (** key + value bytes of acknowledged writes *)
  mutable value_counter : int;
  mutable outage_starts : Time_ns.t list;  (** awaiting their first ack *)
  mutable unavail_ns : int;
  mutable failures : string list;
}

let key_of idx = Printf.sprintf "key-%06d" idx

let fresh_value g =
  g.value_counter <- g.value_counter + 1;
  let tag = Printf.sprintf "v%09d-" g.value_counter in
  tag ^ String.make (max 0 (Spec.value_size - String.length tag)) 'x'

let timed g call f =
  match g.tracer with
  | None -> f ()
  | Some tr ->
    Tracer.enter tr call;
    let r = f () in
    Tracer.leave tr;
    r

let note_ack g r =
  g.acked <- g.acked + 1;
  if r.first_try then g.first_try_acked <- g.first_try_acked + 1;
  match g.outage_starts with
  | [] -> ()
  | starts ->
    let now = Sim.now g.sim in
    List.iter (fun s -> g.unavail_ns <- max g.unavail_ns (now - s)) starts;
    g.outage_starts <- []

let count_bytes g kvs =
  List.iter
    (fun (k, v) -> g.user_bytes <- g.user_bytes + String.length k + String.length v)
    kvs

(* Run one attempt of [r].  A request due while the writer is down, or
   whose read fails, or whose commit a crash leaves in doubt, fails its
   attempt and is retried: refused and in-doubt ones when the writer
   reopens, failed reads after 1 ms.  Its latency still counts from [due]. *)
let rec attempt g r =
  if not (Database.is_open g.db) then begin
    r.first_try <- false;
    g.waiting <- r :: g.waiting
  end
  else begin
    let id = g.next_attempt in
    g.next_attempt <- id + 1;
    Hashtbl.replace g.inflight id r;
    let txn = Database.begin_txn g.db in
    let kvs = ref [] in
    Array.iteri (fun i k -> if r.is_write.(i) then kvs := (key_of k, fresh_value g) :: !kvs) r.keys;
    let kvs = List.rev !kvs in
    let n_writes = List.length kvs in
    if n_writes >= 2 && Rng.bernoulli g.rng g.spec.Spec.mtr_prob then
      timed g Tracer.Put (fun () -> Database.put_multi g.db ~txn kvs)
    else
      List.iter
        (fun (key, value) -> timed g Tracer.Put (fun () -> Database.put g.db ~txn ~key ~value))
        kvs;
    List.iter (fun (k, v) -> g.writes <- (k, v, id) :: g.writes) kvs;
    let pending = ref (Array.length r.keys - n_writes) in
    let read_failed = ref false and finished = ref false in
    (* Only while this attempt is still live: a crash moves it to
       [waiting] and the writer drops its callbacks. *)
    let live () = Hashtbl.mem g.inflight id in
    let finish () =
      finished := true;
      if live () then
        if !read_failed then begin
          Hashtbl.remove g.inflight id;
          Database.abort g.db ~txn;
          r.first_try <- false;
          ignore (Sim.schedule g.sim ~delay:(Time_ns.ms 1) (fun () -> attempt g r) : Sim.event_id)
        end
        else begin
          let asked = Sim.now g.sim in
          timed g Tracer.Commit (fun () ->
              Database.commit g.db ~txn (function
                | Error e -> g.failures <- ("commit refused: " ^ e) :: g.failures
                | Ok () ->
                  Hashtbl.remove g.inflight id;
                  note_ack g r;
                  if n_writes > 0 then begin
                    let now = Sim.now g.sim in
                    Samples.add g.commit_lat (now - r.due);
                    Samples.add g.commit_wait (now - asked);
                    Hashtbl.replace g.acked_attempts id ();
                    count_bytes g kvs
                  end))
        end
    in
    Array.iteri
      (fun i k ->
        if not r.is_write.(i) then begin
          let started = Sim.now g.sim in
          timed g Tracer.Get (fun () ->
              Database.get g.db ~txn ~key:(key_of k) (fun result ->
                  (* Cache hits complete in zero simulated time: the read
                     latency metrics describe reads that leave the writer. *)
                  let took = Sim.now g.sim - started in
                  if took > 0 then Samples.add g.read_lat took;
                  (match result with
                  | Ok _ -> ()
                  | Error _ ->
                    g.read_errors <- g.read_errors + 1;
                    read_failed := true);
                  decr pending;
                  if !pending = 0 then finish ()))
        end)
      r.keys;
    if !pending = 0 && not !finished then finish ()
  end

(* Advance the simulation in [step]s while [busy ()], for at most five
   simulated seconds. *)
let run_while cluster ~step busy =
  let sim = Cluster.sim cluster in
  let deadline = Time_ns.add (Sim.now sim) (Time_ns.sec 5) in
  while busy () && Sim.now sim < deadline do
    Cluster.run_for cluster step
  done

(* A new request, due now. *)
let request g =
  let spec = g.spec in
  let keys = Array.init Spec.ops_per_txn (fun _ -> Workload.Zipf.sample g.zipf g.rng) in
  let is_write = Array.map (fun _ -> Rng.bernoulli g.rng spec.Spec.write_prob) keys in
  attempt g { due = Sim.now g.sim; keys; is_write; first_try = true }

let arrivals g ~until =
  let mean_gap = 1e9 /. g.spec.Spec.rate_per_s in
  let rec arrive () =
    if Sim.now g.sim < until then begin
      g.issued <- g.issued + 1;
      request g;
      let gap = int_of_float (Rng.exponential g.rng ~mean:mean_gap) in
      ignore (Sim.schedule g.sim ~delay:gap arrive : Sim.event_id)
    end
  in
  ignore (Sim.schedule g.sim ~delay:0 arrive : Sim.event_id)

(* Write every key once, in 64-key mini-transactions, and wait for the
   acknowledgements. *)
let preload g =
  let chunk = 64 and n = Spec.key_count in
  let expected = (n + chunk - 1) / chunk and acked = ref 0 in
  for c = 0 to expected - 1 do
    let id = g.next_attempt in
    g.next_attempt <- id + 1;
    let txn = Database.begin_txn g.db in
    let kvs =
      List.init (min chunk (n - (c * chunk))) (fun i -> (key_of ((c * chunk) + i), fresh_value g))
    in
    Database.put_multi g.db ~txn kvs;
    List.iter (fun (k, v) -> g.writes <- (k, v, id) :: g.writes) kvs;
    Database.commit g.db ~txn (function
      | Ok () ->
        incr acked;
        Hashtbl.replace g.acked_attempts id ();
        count_bytes g kvs
      | Error e -> g.failures <- ("preload commit: " ^ e) :: g.failures)
  done;
  run_while g.cluster ~step:(Time_ns.ms 10) (fun () -> !acked < expected);
  if !acked < expected then g.failures <- "preload did not complete" :: g.failures

(* ---- faults ---- *)

type fault_stats = {
  mutable recoveries : int;
  mutable recovery_sim_ns : int;
  mutable recovery_wall_ns : int;
  mutable records_examined : int;
  mutable probes_sent : int;
  mutable hydrate_ns : int;
  mutable replaced : int;
  mutable reader_ios : int;  (** from readers replaced by recovery *)
  mutable reader_reads : int;
}

let reader_counts db =
  let m = Reader.metrics (Database.reader db) in
  (m.Reader.ios_issued, m.Reader.reads)

let crash_writer g fs =
  let ios, reads = reader_counts g.db in
  fs.reader_ios <- fs.reader_ios + ios;
  fs.reader_reads <- fs.reader_reads + reads;
  Database.crash g.db;
  g.outage_starts <- Sim.now g.sim :: g.outage_starts;
  let in_doubt = Hashtbl.fold (fun id r acc -> (id, r) :: acc) g.inflight [] in
  Hashtbl.reset g.inflight;
  List.iter
    (fun (_, r) ->
      r.first_try <- false;
      g.waiting <- r :: g.waiting)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) in_doubt)

let recover_writer g fs =
  let wall0 = Perf.Clock.now_ns () in
  Database.recover g.db (function
    | Error e -> g.failures <- ("writer recovery: " ^ e) :: g.failures
    | Ok o ->
      fs.recoveries <- fs.recoveries + 1;
      fs.recovery_sim_ns <- fs.recovery_sim_ns + o.Recovery.duration;
      fs.recovery_wall_ns <- fs.recovery_wall_ns + Perf.Clock.elapsed_ns ~since:wall0;
      fs.records_examined <- fs.records_examined + o.Recovery.records_examined;
      fs.probes_sent <- fs.probes_sent + o.Recovery.probes_sent;
      let retry = List.rev g.waiting in
      g.waiting <- [];
      List.iter (attempt g) retry)

let replace_segment g fs ~pg ~suspect =
  let started = Sim.now g.sim in
  Cluster.destroy_storage_node g.cluster pg suspect;
  match Cluster.start_replacement g.cluster pg ~suspect with
  | Error e -> g.failures <- ("start replacement: " ^ e) :: g.failures
  | Ok replacement ->
    let rec poll () =
      if Cluster.replacement_caught_up g.cluster pg ~replacement then begin
        fs.hydrate_ns <- fs.hydrate_ns + (Sim.now g.sim - started);
        match Cluster.finish_replacement g.cluster pg ~suspect with
        | Ok () -> fs.replaced <- fs.replaced + 1
        | Error e -> g.failures <- ("finish replacement: " ^ e) :: g.failures
      end
      else ignore (Sim.schedule g.sim ~delay:(Time_ns.ms 5) poll : Sim.event_id)
    in
    poll ()

let schedule_faults g fs ~start =
  let at ms f =
    ignore (Sim.schedule_at g.sim ~at:(Time_ns.add start (Time_ns.ms ms)) f : Sim.event_id)
  in
  let pg = Storage.Pg_id.of_int and mem = Quorum.Member_id.of_int in
  List.iter
    (function
      | Spec.Writer_crash { at_ms; down_ms } ->
        at at_ms (fun () -> crash_writer g fs);
        at (at_ms + down_ms) (fun () -> recover_writer g fs)
      | Spec.Storage_crash { at_ms; down_ms; pg = p; member } ->
        at at_ms (fun () -> Cluster.crash_storage_node g.cluster (pg p) (mem member));
        at (at_ms + down_ms) (fun () -> Cluster.restart_storage_node g.cluster (pg p) (mem member))
      | Spec.Replacement { at_ms; pg = p; member } ->
        at at_ms (fun () -> replace_segment g fs ~pg:(pg p) ~suspect:(mem member)))
    g.spec.Spec.faults

(* ---- correctness ---- *)

(* Read back every key ever written: the visible value must be the last
   acknowledged write or a later in-doubt one (MVCC orders versions by
   LSN, which is write-call order). *)
let durability_audit g =
  let expect = Hashtbl.create 1024 in
  List.iter
    (fun (k, v, id) ->
      let acked, in_doubt = Option.value (Hashtbl.find_opt expect k) ~default:(None, []) in
      Hashtbl.replace expect k
        (if Hashtbl.mem g.acked_attempts id then (Some v, []) else (acked, v :: in_doubt)))
    (List.rev g.writes);
  let problems = ref [] and pending = ref 0 in
  let keys = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) expect []) in
  if not (Database.is_open g.db) then problems := [ "writer not open at audit" ]
  else
    List.iter
      (fun k ->
        let acked, in_doubt = Hashtbl.find expect k in
        incr pending;
        Database.get g.db ~key:k (fun result ->
            decr pending;
            let bad why = problems := Printf.sprintf "key %s: %s" k why :: !problems in
            match result with
            | Error e -> bad ("read error: " ^ e)
            | Ok None -> if acked <> None then bad "acknowledged write lost"
            | Ok (Some v) ->
              if not (acked = Some v || List.mem v in_doubt) then bad ("unexpected value " ^ v)))
      keys;
  run_while g.cluster ~step:(Time_ns.ms 10) (fun () -> !pending > 0);
  if !pending > 0 then problems := "audit reads did not complete" :: !problems;
  List.rev !problems

(* ---- round ---- *)

(* Exact, seed-determined outcome of a round's window. *)
type sim = {
  issued : int;
  acked : int;
  first_try_acked : int;
  read_errors : int;
  commit_lat : int array;
  read_lat : int array;
  commit_wait : int array;
  unavail_ns : int;
  events : int;
  net : Net.stats;  (** window delta of the counters used *)
  stored_bytes : int;
  user_bytes : int;
  versions_retained : int;
  hot_log_records : int;
  write_batches : int;
  records_in_batches : int;
  gossip_sent : int;
  gossip_filled : int;
  stages : (float * int) list;  (** (total ns, count) per {!stage_labels} *)
  gets : int;
  cache_hits : int;
  storage_reads : int;
  reader_ios : int;
  reader_reads : int;
  recoveries : int;
  recovery_sim_ns : int;
  records_examined : int;
  probes_sent : int;
  replaced : int;
  hydrate_ns : int;
  replica_lag : Histogram.t option;
}

type round = {
  sim : sim;
  wall_ns : int;  (** offered window plus drain *)
  minor_words : float;  (** allocated during the timed window *)
  recovery_wall_ns : int;
  tracer : (Tracer.counters * Tracer.counters * Tracer.counters) option;
      (** traced rounds: whole window, first quarter, last quarter *)
  problems : string list;  (** failed correctness checks *)
}

let stage_labels =
  let arrow = "\xe2\x86\x92" in
  let l a b = a ^ arrow ^ b in
  [
    l "lsn_allocated" "boxcar_flushed";
    l "boxcar_flushed" "node_acked";
    l "node_acked" "pgcl_advanced";
    l "pgcl_advanced" "vcl_advanced";
  ]

let stage_totals reg =
  List.map
    (fun label ->
      match Obs.Registry.find_histogram reg ~labels:[ ("stage", label) ] "commit_stage_ns" with
      | Some h -> (Histogram.total h, Histogram.count h)
      | None -> (0., 0))
    stage_labels

type node_totals = { batches : int; records_in : int; g_sent : int; g_filled : int }

let node_totals nodes =
  List.fold_left
    (fun acc n ->
      let m = Node.metrics n in
      {
        batches = acc.batches + m.Node.write_batches;
        records_in = acc.records_in + m.Node.records_stored + m.Node.duplicates;
        g_sent = acc.g_sent + m.Node.gossip_records_sent;
        g_filled = acc.g_filled + m.Node.gossip_records_filled;
      })
    { batches = 0; records_in = 0; g_sent = 0; g_filled = 0 }
    nodes

let net_delta (a : Net.stats) (b : Net.stats) =
  {
    b with
    Net.sent = b.Net.sent - a.Net.sent;
    bytes_sent = b.Net.bytes_sent - a.Net.bytes_sent;
    dropped_down = b.Net.dropped_down - a.Net.dropped_down;
    dropped_blocked = b.Net.dropped_blocked - a.Net.dropped_blocked;
    dropped_partition = b.Net.dropped_partition - a.Net.dropped_partition;
    dropped_random = b.Net.dropped_random - a.Net.dropped_random;
  }

let cluster_config (spec : Spec.t) ~seed =
  {
    Cluster.default_config with
    Cluster.seed;
    db_config =
      {
        Database.default_config with
        Database.n_blocks = spec.Spec.n_blocks;
        cache_capacity = spec.Spec.cache_capacity;
      };
  }

(* [Cluster.create] until the writer is open, in wall-clock ns. *)
let setup_ns (spec : Spec.t) ~seed =
  let t0 = Perf.Clock.now_ns () in
  ignore (Cluster.create (cluster_config spec ~seed) : Cluster.t);
  Perf.Clock.elapsed_ns ~since:t0

let run (spec : Spec.t) ~seed ~mode ~audit =
  let cluster = Cluster.create (cluster_config spec ~seed) in
  let sim = Cluster.sim cluster and db = Cluster.db cluster and net = Cluster.net cluster in
  let replica = if spec.Spec.replica then Some (Cluster.add_replica cluster) else None in
  Option.iter
    (fun (p, m, factor) ->
      Cluster.slow_storage_node cluster (Storage.Pg_id.of_int p) (Quorum.Member_id.of_int m) factor)
    spec.Spec.gray_node;
  let tracer = match mode with Traced -> Some (Tracer.create ()) | Plain | Checked -> None in
  let g =
    {
      spec; cluster; sim; db;
      rng = Rng.create (seed lxor 0x5eed);
      zipf = Workload.Zipf.create ~n:Spec.key_count ~theta:spec.Spec.zipf_theta;
      tracer;
      issued = 0; acked = 0; first_try_acked = 0; read_errors = 0;
      commit_lat = Samples.create (); read_lat = Samples.create ();
      commit_wait = Samples.create ();
      inflight = Hashtbl.create 256; waiting = []; next_attempt = 0;
      writes = []; acked_attempts = Hashtbl.create 4096; user_bytes = 0;
      value_counter = 0; outage_starts = []; unavail_ns = 0; failures = [];
    }
  in
  if spec.Spec.preload then preload g;
  let checker =
    match mode with Checked -> Some (Vopr.Checker.create ~cluster ()) | Plain | Traced -> None
  in
  let fs =
    {
      recoveries = 0; recovery_sim_ns = 0; recovery_wall_ns = 0; records_examined = 0;
      probes_sent = 0; hydrate_ns = 0; replaced = 0; reader_ios = 0; reader_reads = 0;
    }
  in
  (* ---- baseline of every counter the window is measured by ---- *)
  let start = Sim.now sim in
  let ios0, reads0 = reader_counts db in
  let nodes0 = Cluster.storage_nodes cluster in
  let totals0 = node_totals nodes0 in
  let net0 = Net.stats net and events0 = Sim.processed sim in
  let m0 = Database.metrics db in
  let gets0 = m0.Database.gets
  and hits0 = m0.Database.cache_hit_reads
  and sreads0 = m0.Database.storage_reads in
  let reg = Obs.Ctx.registry (Cluster.obs cluster) in
  let stages0 = stage_totals reg in
  let offered = Time_ns.ms spec.Spec.offered_ms in
  arrivals g ~until:(Time_ns.add start offered);
  schedule_faults g fs ~start;
  Option.iter (fun tr -> Tracer.install tr cluster) tracer;
  let snap () = Option.map Tracer.snapshot tracer in
  let marks = [ offered / 4; 3 * offered / 4; offered; offered + Time_ns.ms Spec.drain_ms ] in
  (* Start every window from a compacted heap, so the heap high-water mark
     reflects one round's growth rather than the garbage of earlier ones. *)
  Gc.compact ();
  (* ---- timed window ---- *)
  let minor0 = Gc.minor_words () in
  let w0 = Perf.Clock.now_ns () in
  let s0 = snap () in
  let snaps = List.map (fun m -> Sim.run_until sim (Time_ns.add start m); snap ()) marks in
  let wall_ns = Perf.Clock.elapsed_ns ~since:w0 in
  let minor_words = Gc.minor_words () -. minor0 in
  (* ---- end of the timed window ---- *)
  Option.iter (fun _ -> Tracer.uninstall cluster) tracer;
  let added = List.filter (fun n -> not (List.memq n nodes0)) (Cluster.storage_nodes cluster) in
  let nodes1 = nodes0 @ added in
  let totals1 = node_totals nodes1 in
  let ios1, reads1 = reader_counts db in
  let m1 = Database.metrics db in
  let segs = List.concat_map Node.segments (Cluster.storage_nodes cluster) in
  let sum_segs f = List.fold_left (fun a s -> a + f s) 0 segs in
  let sim_result =
    {
      issued = g.issued;
      acked = g.acked;
      first_try_acked = g.first_try_acked;
      read_errors = g.read_errors;
      commit_lat = Samples.to_array g.commit_lat;
      read_lat = Samples.to_array g.read_lat;
      commit_wait = Samples.to_array g.commit_wait;
      unavail_ns = g.unavail_ns;
      events = Sim.processed sim - events0;
      net = net_delta net0 (Net.stats net);
      stored_bytes = sum_segs Storage.Segment.bytes_stored;
      user_bytes = g.user_bytes;
      versions_retained =
        sum_segs (fun s -> Storage.Block_store.version_count (Storage.Segment.store s));
      hot_log_records = sum_segs (fun s -> Wal.Hot_log.record_count (Storage.Segment.hot_log s));
      write_batches = totals1.batches - totals0.batches;
      records_in_batches = totals1.records_in - totals0.records_in;
      gossip_sent = totals1.g_sent - totals0.g_sent;
      gossip_filled = totals1.g_filled - totals0.g_filled;
      stages =
        List.map2 (fun (t1, c1) (t0, c0) -> (t1 -. t0, c1 - c0)) (stage_totals reg) stages0;
      gets = m1.Database.gets - gets0;
      cache_hits = m1.Database.cache_hit_reads - hits0;
      storage_reads = m1.Database.storage_reads - sreads0;
      reader_ios = fs.reader_ios + ios1 - ios0;
      reader_reads = fs.reader_reads + reads1 - reads0;
      recoveries = 0;
      recovery_sim_ns = 0;
      records_examined = 0;
      probes_sent = 0;
      replaced = fs.replaced;
      hydrate_ns = fs.hydrate_ns;
      replica_lag =
        Option.map
          (fun r ->
            (* a copy: the replica keeps recording after the window *)
            Histogram.merge (Aurora_core.Replica.metrics r).Aurora_core.Replica.stream_lag
              (Histogram.create ()))
          replica;
    }
  in
  (* ---- restart: every round ends by crashing the writer once more, with
     a request due at the crash, and recovering it after the same 50 ms
     restart delay the fault schedules use; so every workload has a writer
     outage, measured on its own state ---- *)
  let unresolved = Hashtbl.length g.inflight + List.length g.waiting in
  crash_writer g fs;
  request g;
  ignore (Sim.schedule sim ~delay:(Time_ns.ms 50) (fun () -> recover_writer g fs) : Sim.event_id);
  run_while cluster ~step:(Time_ns.ms 1) (fun () ->
      g.waiting <> [] || Hashtbl.length g.inflight > 0);
  let sim_result =
    {
      sim_result with
      unavail_ns = g.unavail_ns;
      recoveries = fs.recoveries;
      recovery_sim_ns = fs.recovery_sim_ns;
      records_examined = fs.records_examined;
      probes_sent = fs.probes_sent;
    }
  in
  let tracer_windows =
    match (s0, snaps) with
    | Some s0, [ Some q1; Some q3; Some q4; Some fin ] ->
      Some (Tracer.diff s0 fin, Tracer.diff s0 q1, Tracer.diff q3 q4)
    | _ -> None
  in
  let problems =
    List.rev g.failures
    @ (if unresolved > 0 then
         [ Printf.sprintf "%d requests still unacknowledged after the drain" unresolved ]
       else [])
    @ (if audit then durability_audit g else [])
    @
    match checker with
    | None -> []
    | Some c ->
      Vopr.Checker.quiesce_audit c;
      Cluster.run_for cluster (Time_ns.sec 1);
      Vopr.Checker.stop c;
      List.map
        (fun v -> Printf.sprintf "checker %s: %s" v.Vopr.Checker.checker v.Vopr.Checker.detail)
        (Vopr.Checker.violations c)
  in
  {
    sim = sim_result;
    wall_ns;
    minor_words;
    recovery_wall_ns = fs.recovery_wall_ns;
    tracer = tracer_windows;
    problems;
  }
