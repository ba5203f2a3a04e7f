open Simcore
open Wal
module Database = Aurora_core.Database

type profile = {
  ops_per_txn : int;
  write_fraction : float;
  key_count : int;
  zipf_theta : float;
  value_size : int;
  mtr_fraction : float;
}

let default_profile =
  {
    ops_per_txn = 4;
    write_fraction = 0.5;
    key_count = 10_000;
    zipf_theta = 0.9;
    value_size = 64;
    mtr_fraction = 0.1;
  }

type acked = {
  acked_txn : Txn_id.t;
  keys_written : (string * string) list;
  acked_at : Time_ns.t;
}

type t = {
  sim : Sim.t;
  rng : Rng.t;
  db : Database.t;
  profile : profile;
  zipf : Zipf.t;
  commit_latency : Histogram.t;
  read_latency : Histogram.t;
  mutable issued : int;
  mutable acked : int;
  mutable failed : int;
  mutable acked_writes : acked list;
  (* Issue-stamp keyed, NOT Txn_id keyed: a recovered writer re-derives its
     transaction floor from storage, so the id of a transaction that
     vanished entirely in a crash (nothing durable) can be reused by a
     post-recovery transaction.  Keying the audit trail by Txn_id would
     then retroactively mark the dead pre-crash write as acknowledged and
     the durability oracle would demand a value that was legitimately
     lost. *)
  mutable unacked : (int * (string * string) list) list;
  mutable writes_log : (string * string * int) list; (* newest first *)
  acked_issues : (int, unit) Hashtbl.t;
  mutable next_issue : int;
  mutable value_counter : int;
}

let create ~sim ~rng ~db ~profile () =
  {
    sim;
    rng;
    db;
    profile;
    zipf = Zipf.create ~n:profile.key_count ~theta:profile.zipf_theta;
    commit_latency = Histogram.create ();
    read_latency = Histogram.create ();
    issued = 0;
    acked = 0;
    failed = 0;
    acked_writes = [];
    unacked = [];
    writes_log = [];
    acked_issues = Hashtbl.create 256;
    next_issue = 0;
    value_counter = 0;
  }

let key_of t idx = Printf.sprintf "key-%06d" (idx mod t.profile.key_count)

let fresh_value t =
  t.value_counter <- t.value_counter + 1;
  let tag = Printf.sprintf "v%09d-" t.value_counter in
  let pad = max 0 (t.profile.value_size - String.length tag) in
  tag ^ String.make pad 'x'

let issue_one t ~on_done =
  t.issued <- t.issued + 1;
  let issue = t.next_issue in
  t.next_issue <- t.next_issue + 1;
  match Database.begin_txn t.db with
  | exception Failure msg ->
    t.failed <- t.failed + 1;
    on_done (Error msg)
  | txn ->
    let n = t.profile.ops_per_txn in
    let writes = ref [] in
    let reads_pending = ref 0 in
    let committed = ref false in
    let try_commit () =
      if (not !committed) && !reads_pending = 0 then begin
        committed := true;
        let keys_written = !writes in
        if keys_written <> [] then t.unacked <- (issue, keys_written) :: t.unacked;
        Database.commit t.db ~txn (fun result ->
            match result with
            | Ok () ->
              t.acked <- t.acked + 1;
              Hashtbl.replace t.acked_issues issue ();
              if keys_written <> [] then begin
                t.unacked <-
                  List.filter (fun (x, _) -> x <> issue) t.unacked;
                t.acked_writes <-
                  { acked_txn = txn; keys_written; acked_at = Sim.now t.sim }
                  :: t.acked_writes
              end;
              on_done (Ok ())
            | Error e ->
              t.failed <- t.failed + 1;
              on_done (Error e))
      end
    in
    let n_writes =
      int_of_float (Float.round (t.profile.write_fraction *. float_of_int n))
    in
    let as_mtr =
      n_writes > 1 && Rng.bernoulli t.rng t.profile.mtr_fraction
    in
    (* Writes first (buffered, synchronous at the engine), then reads. *)
    if as_mtr then begin
      let kvs =
        List.init n_writes (fun _ ->
            (key_of t (Zipf.sample t.zipf t.rng), fresh_value t))
      in
      Database.put_multi t.db ~txn kvs;
      List.iter (fun (k, v) -> t.writes_log <- (k, v, issue) :: t.writes_log) kvs;
      writes := kvs @ !writes
    end
    else
      for _ = 1 to n_writes do
        let key = key_of t (Zipf.sample t.zipf t.rng) in
        let value = fresh_value t in
        Database.put t.db ~txn ~key ~value;
        t.writes_log <- (key, value, issue) :: t.writes_log;
        writes := (key, value) :: !writes
      done;
    for _ = 1 to n - n_writes do
      incr reads_pending;
      let key = key_of t (Zipf.sample t.zipf t.rng) in
      let started = Sim.now t.sim in
      Database.get t.db ~txn ~key (fun _ ->
          Histogram.record_span t.read_latency started (Sim.now t.sim);
          decr reads_pending;
          try_commit ())
    done;
    try_commit ()

let timed_issue t ~on_done =
  let started = Sim.now t.sim in
  issue_one t ~on_done:(fun result ->
      (match result with
      | Ok () -> Histogram.record_span t.commit_latency started (Sim.now t.sim)
      | Error _ -> ());
      on_done result)

let run_open_loop t ~rate_per_sec ~duration =
  if rate_per_sec <= 0. then invalid_arg "Txn_gen.run_open_loop: rate";
  let mean_gap_ns = 1e9 /. rate_per_sec in
  let stop_at = Time_ns.add (Sim.now t.sim) duration in
  let rec arrive () =
    if Time_ns.compare (Sim.now t.sim) stop_at < 0 then begin
      timed_issue t ~on_done:(fun _ -> ());
      let gap = Time_ns.ns (int_of_float (Rng.exponential t.rng ~mean:mean_gap_ns)) in
      ignore (Sim.schedule t.sim ~delay:gap arrive)
    end
  in
  ignore (Sim.schedule t.sim ~delay:Time_ns.zero arrive)

let run_closed_loop t ~clients ~think_time ~duration =
  if clients <= 0 then invalid_arg "Txn_gen.run_closed_loop: clients";
  let stop_at = Time_ns.add (Sim.now t.sim) duration in
  let rec client_loop () =
    if Time_ns.compare (Sim.now t.sim) stop_at < 0 then
      timed_issue t ~on_done:(fun _ ->
          let think = Distribution.sample think_time t.rng in
          ignore (Sim.schedule t.sim ~delay:think client_loop))
  in
  for _ = 1 to clients do
    ignore (Sim.schedule t.sim ~delay:Time_ns.zero client_loop)
  done

let commit_latency t = t.commit_latency
let read_latency t = t.read_latency
let issued t = t.issued
let acked t = t.acked
let failed t = t.failed
let acked_writes t = List.rev t.acked_writes

let unacked_writes t = List.concat_map snd t.unacked

let writes_in_issue_order t =
  List.rev_map
    (fun (k, v, issue) -> (k, v, Hashtbl.mem t.acked_issues issue))
    t.writes_log

let acceptable_values t =
  let valid = Hashtbl.create 256 in
  List.iter
    (fun (key, value, acked) ->
      if acked then Hashtbl.replace valid key [ value ]
      else
        match Hashtbl.find_opt valid key with
        | Some vs -> Hashtbl.replace valid key (value :: vs)
        | None -> ())
    (writes_in_issue_order t);
  valid
