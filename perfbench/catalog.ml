(* The metric catalog: every metric the benchmark prints, with its unit,
   direction, where it is read from, and -- for per-layer metrics -- the
   end-to-end metric and workload it should move.  The benchmark refuses
   to print a metric that is not listed here, and fails if a listed
   metric of the printed scope is missing, so the two cannot drift apart.

   Scopes: [End_to_end] metrics are measured untraced and printed as the
   JSON result with --trace 0; [Per_layer] metrics come from the traced
   run (or from counters that are exact for a seed) and are printed with
   --trace 1; [Info] metrics are printed as text lines only. *)

type better = Lower | Higher | Neither
type scope = End_to_end | Per_layer | Info

type entry = {
  name : string;
  unit_ : string;
  better : better;
  scope : scope;
  source : string;
  moves : string;  (** per-layer: what it should move, on which workload *)
}

let e name unit_ better source =
  { name; unit_; better; scope = End_to_end; source; moves = "" }

let l ?(better = Lower) name unit_ source moves =
  { name; unit_; better; scope = Per_layer; source; moves }

let i name unit_ source = { name; unit_; better = Neither; scope = Info; source; moves = "" }

let msg_kinds = List.map Recorder.Event.msg_kind_name Recorder.Event.all_msg_kinds
let drop_causes = List.map Recorder.Event.drop_cause_name Recorder.Event.all_drop_causes

(* Wall-clock self times reported for the whole window and for its first
   and last quarter, so cost that grows with accumulated state shows. *)
let self_times =
  [
    ("simcore.dispatch_self_ns", "sim events minus nested spans, per event",
     "commits_per_wall_s, all workloads");
    ("simcore.timer_self_ns", "events that delivered no message, minus nested spans, per event",
     "commits_per_wall_s, all workloads, most on oltp_write");
    ("simnet.delivery_self_ns", "Perf.Probe net_delivery minus nested spans, per delivery",
     "commits_per_wall_s, all workloads");
    ("storage.apply_self_ns", "Perf.Probe storage_apply, per Write_batch apply",
     "commits_per_wall_s on oltp_write");
    ("core.consistency.ack_self_ns", "Perf.Probe consistency_advance, per advancing ack",
     "commits_per_wall_s on oltp_write");
    ("storage.write_batch_ns", "events that delivered a Write_batch, per event",
     "commits_per_wall_s on oltp_write");
    ("storage.pgmrpl_update_ns", "events that delivered a Pgmrpl_update, per event",
     "commits_per_wall_s on oltp_write");
    ("storage.read_block_ns", "events that delivered a Read_block, per event",
     "commits_per_wall_s and read_p99_sim_us on read_miss");
    ("core.write_ack_ns", "events that delivered a Write_ack, per event",
     "commits_per_wall_s on oltp_write");
  ]

let all =
  [
    e "commits_per_wall_s" "1/s" Higher
      "acknowledged transactions per wall-clock second of the untraced window; median over rounds";
    e "setup_s" "s" Lower
      "Cluster.create until the writer is open; median of 41 back-to-back set-ups at start";
    e "peak_heap_mb" "MB" Lower "Gc top_heap_words after the first pass over the round seeds";
    e "minor_words_per_commit" "words" Lower
      "Gc minor words allocated in the untraced window per acknowledged transaction; median";
    e "commit_p50_sim_us" "us" Lower "due time to commit ack, transactions with writes";
    e "commit_p99_sim_us" "us" Lower
      "due time to commit ack; p99, or the highest percentile with ten samples beyond it";
    e "read_p50_sim_us" "us" Lower "get to reply, reads served by storage";
    e "read_p99_sim_us" "us" Lower
      "get to reply, reads served by storage; p99 or the highest supported";
    e "net_msgs_per_commit" "count" Lower "Net.stats sent per acknowledged transaction";
    e "wire_bytes_per_commit" "B" Lower "Net.stats bytes_sent per acknowledged transaction";
    e "stored_bytes_per_user_byte" "ratio" Lower
      "Segment.bytes_stored over all segments / key+value bytes of acknowledged writes";
    e "ok_first_try_frac" "ratio" Higher
      "requests acknowledged on their first attempt / requests issued";
    e "unavail_sim_ms" "ms" Lower
      "longest interval from a writer crash to the next commit ack; every round ends with one \
       writer restart (50 ms down, then recovery) with a request due at the crash";
  ]
  @ List.map
      (fun k ->
        l
          ("simnet.msgs_per_commit." ^ k)
          "count" "Net recorder hook: messages sent of this kind per acknowledged transaction"
          "net_msgs_per_commit, all workloads")
      msg_kinds
  @ List.map
      (fun c ->
        l ("simnet.drops." ^ c) "count" "Net.stats drops of this cause in the window"
          "net_msgs_per_commit, all workloads")
      drop_causes
  @ List.concat_map
      (fun (name, source, moves) ->
        [
          l name "ns" source moves;
          l (name ^ ".q1") "ns" (source ^ "; first quarter of the window") moves;
          l (name ^ ".q4") "ns" (source ^ "; last quarter of the window") moves;
        ])
      self_times
  @ [
      l "simcore.events_per_commit" "count" "Sim.processed per acknowledged transaction"
        "commits_per_wall_s, all workloads, most on oltp_write";
      l "storage.minor_words_per_apply" "words" "Perf.Probe storage_apply minor words per apply"
        "commits_per_wall_s on oltp_write";
      l "storage.versions_retained" "count" "Block_store.version_count over all segments at the end"
        "commits_per_wall_s and read_p99_sim_us on read_miss; peak_heap_mb on oltp_write";
      l ~better:Higher "storage.gossip_useful_ratio" "ratio"
        "storage gossip records filled / records sent" "net_msgs_per_commit on fault_recovery";
      l "wal.hot_log_records" "count" "Hot_log.record_count over all segments at the end"
        "peak_heap_mb";
      l ~better:Higher "core.boxcar.records_per_write" "count"
        "records / Write_batch applies on storage nodes"
        "net_msgs_per_commit and commit_p50_sim_us on oltp_write";
      l "core.stage.alloc_to_flush_sim_us" "us"
        "commit_stage_ns lsn_allocated to boxcar_flushed, mean"
        "net_msgs_per_commit and commit_p50_sim_us on oltp_write";
      l "core.stage.flush_to_ack_sim_us" "us" "commit_stage_ns boxcar_flushed to node_acked, mean"
        "commit_p99_sim_us";
      l "core.stage.ack_to_vcl_sim_us" "us"
        "commit_stage_ns node_acked to vcl_advanced (quorum wait), mean" "commit_p99_sim_us";
      l "core.commit_queue.wait_sim_us" "us" "commit call to ack; p99 or the highest supported"
        "commit_p99_sim_us on oltp_write and fault_recovery";
      l "core.commit_queue.max_wait_sim_ms" "ms" "commit call to ack, longest"
        "commit_p99_sim_us on fault_recovery";
      l "core.database.put_ns" "ns" "wall time of each Database.put / put_multi call, self"
        "commits_per_wall_s";
      l "core.database.commit_ns" "ns" "wall time of each Database.commit call, self"
        "commits_per_wall_s";
      l "core.database.get_ns" "ns" "wall time of each Database.get call, self"
        "commits_per_wall_s";
      l ~better:Higher "core.buffer_cache.hit_ratio" "ratio" "Database.metrics cache hits / gets"
        "read_p50_sim_us and read_p99_sim_us on read_miss";
      l "core.reader.storage_reads_per_get" "ratio" "Database.metrics storage reads / gets"
        "read_p50_sim_us and read_p99_sim_us on read_miss";
      l "core.reader.read_block_msgs_per_storage_read" "ratio"
        "Reader ios issued / reads (hedge and probe waste)" "read_p99_sim_us on read_miss";
      l "core.recovery.sim_ms" "ms" "Recovery.outcome duration, mean"
        "unavail_sim_ms on fault_recovery";
      l "core.recovery.wall_ms" "ms" "wall time from Database.recover to its outcome, mean"
        "unavail_sim_ms on fault_recovery";
      l "core.recovery.records_examined" "count" "Recovery.outcome records_examined, mean"
        "unavail_sim_ms on fault_recovery";
      l "core.recovery.probes_sent" "count" "Recovery.outcome probes_sent, mean"
        "unavail_sim_ms on fault_recovery";
      l "core.replica.lag_p99_sim_us" "us" "Replica stream_lag histogram p99"
        "ok_first_try_frac and commit_p99_sim_us on fault_recovery";
      l "quorum.replacement_hydrate_sim_ms" "ms"
        "start_replacement until the new segment has caught up, mean"
        "ok_first_try_frac and commit_p99_sim_us on fault_recovery";
      l ~better:Higher "perf.tracing_overhead" "ratio"
        "traced / untraced commits_per_wall_s (medians)" "";
      l ~better:Higher "perf.self_time_coverage" "ratio"
        "sum of per-event spans / traced window wall time" "";
      i "failed_op_frac" "ratio"
        "requests whose first attempt failed (refused while the writer was down, left in doubt \
         by a crash, or a read error) / requests issued";
      i "commit_samples" "count" "samples behind the commit latency percentiles";
      i "read_samples" "count" "samples behind the read latency percentiles";
      i "commit_tail_pct" "pct" "percentile reported as commit_p99_sim_us";
      i "read_tail_pct" "pct" "percentile reported as read_p99_sim_us";
      i "requests" "count" "requests issued over the run's distinct rounds";
      i "reads_failed" "count" "gets that returned an error";
      i "rounds_untraced" "count" "timed untraced rounds";
      i "rounds_traced" "count" "timed traced rounds";
    ]

let find name = List.find_opt (fun en -> String.equal en.name name) all
let names scope = List.filter_map (fun en -> if en.scope = scope then Some en.name else None) all

(* BENCHMARK.json at the checkout root must name exactly this catalog's
   end-to-end and per-layer metrics, with the same units, and the
   workloads the benchmark defines. *)
let check_manifest ~path ~workloads =
  let names_in json key field =
    match json with
    | Obs.Json.Obj fields -> (
      match List.assoc_opt key fields with
      | Some (Obs.Json.List items) ->
        List.map
          (function
            | Obs.Json.Obj f -> (
              match List.assoc_opt field f with Some (Obs.Json.String s) -> s | _ -> "?")
            | _ -> "?")
          items
      | _ -> [])
    | _ -> []
  in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> [ "cannot read " ^ path ^ ": " ^ e ]
  | text -> (
    match Obs.Json.of_string text with
    | Error e -> [ path ^ ": " ^ e ]
    | Ok json ->
      let expect what listed wanted =
        if listed = wanted then []
        else [ Printf.sprintf "%s lists %s [%s], the benchmark has [%s]" path what
                 (String.concat " " listed) (String.concat " " wanted) ]
      in
      let units scope =
        List.filter_map (fun en -> if en.scope = scope then Some en.unit_ else None) all
      in
      expect "workloads" (names_in json "workloads" "name") workloads
      @ expect "end_to_end" (names_in json "end_to_end" "name") (names End_to_end)
      @ expect "end_to_end units" (names_in json "end_to_end" "unit") (units End_to_end)
      @ expect "per_layer" (names_in json "per_layer" "name") (names Per_layer)
      @ expect "per_layer units" (names_in json "per_layer" "unit") (units Per_layer))
