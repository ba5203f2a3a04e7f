(* Turning rounds into metrics.  Simulated metrics pool the run's distinct
   rounds (one per round seed), so they are exact for the run's seed;
   wall-clock metrics take the median over every timed round. *)

module D = Round

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    float_of_int sorted.(max 0 (min (n - 1) (rank - 1)))

(* The highest percentile, up to 99, with at least ten samples beyond it. *)
let tail_pct n = if n <= 20 then 50. else Float.min 99. (100. *. (1. -. (10. /. float_of_int n)))

let pooled f sims =
  let a = Array.concat (List.map f sims) in
  Array.sort Int.compare a;
  a

let us ns = ns /. 1e3

(* Exact metrics of the pooled rounds: end-to-end, per-layer and info. *)
let sim_metrics (sims : D.sim list) =
  let commits = pooled (fun s -> s.D.commit_lat) sims in
  let reads = pooled (fun s -> s.D.read_lat) sims in
  let waits = pooled (fun s -> s.D.commit_wait) sims in
  let acked = sum (fun s -> s.D.acked) sims and issued = sum (fun s -> s.D.issued) sims in
  let per_commit f = ratio (sum f sims) acked in
  let mean_per_round f = ratio (sum f sims) (List.length sims) in
  let net f = sum (fun s -> f s.D.net) sims in
  let recoveries = sum (fun s -> s.D.recoveries) sims in
  let stage i =
    let t = List.fold_left (fun a s -> a +. fst (List.nth s.D.stages i)) 0. sims in
    let c = sum (fun s -> snd (List.nth s.D.stages i)) sims in
    if c = 0 then 0. else t /. float_of_int c
  in
  let lag =
    match List.filter_map (fun s -> s.D.replica_lag) sims with
    | [] -> 0.
    | h :: rest ->
      float_of_int (Simcore.Histogram.percentile (List.fold_left Simcore.Histogram.merge h rest) 99.)
  in
  let commit_tail = tail_pct (Array.length commits) and read_tail = tail_pct (Array.length reads) in
  let ok_first = ratio (sum (fun s -> s.D.first_try_acked) sims) issued in
  [
    ("commit_p50_sim_us", us (percentile commits 50.));
    ("commit_p99_sim_us", us (percentile commits commit_tail));
    ("read_p50_sim_us", us (percentile reads 50.));
    ("read_p99_sim_us", us (percentile reads read_tail));
    ("net_msgs_per_commit", ratio (net (fun n -> n.Simnet.Net.sent)) acked);
    ("wire_bytes_per_commit", ratio (net (fun n -> n.Simnet.Net.bytes_sent)) acked);
    ( "stored_bytes_per_user_byte",
      ratio (sum (fun s -> s.D.stored_bytes) sims) (sum (fun s -> s.D.user_bytes) sims) );
    ("ok_first_try_frac", ok_first);
    ( "unavail_sim_ms",
      float_of_int (List.fold_left (fun a s -> max a s.D.unavail_ns) 0 sims) /. 1e6 );
    ("simcore.events_per_commit", per_commit (fun s -> s.D.events));
    ("simnet.drops.down", float_of_int (net (fun n -> n.Simnet.Net.dropped_down)));
    ("simnet.drops.blocked", float_of_int (net (fun n -> n.Simnet.Net.dropped_blocked)));
    ("simnet.drops.partitioned", float_of_int (net (fun n -> n.Simnet.Net.dropped_partition)));
    ("simnet.drops.random", float_of_int (net (fun n -> n.Simnet.Net.dropped_random)));
    ("storage.versions_retained", mean_per_round (fun s -> s.D.versions_retained));
    ( "storage.gossip_useful_ratio",
      ratio (sum (fun s -> s.D.gossip_filled) sims) (sum (fun s -> s.D.gossip_sent) sims) );
    ("wal.hot_log_records", mean_per_round (fun s -> s.D.hot_log_records));
    ( "core.boxcar.records_per_write",
      ratio (sum (fun s -> s.D.records_in_batches) sims) (sum (fun s -> s.D.write_batches) sims) );
    ("core.stage.alloc_to_flush_sim_us", us (stage 0));
    ("core.stage.flush_to_ack_sim_us", us (stage 1));
    ("core.stage.ack_to_vcl_sim_us", us (stage 2 +. stage 3));
    ("core.commit_queue.wait_sim_us", us (percentile waits (tail_pct (Array.length waits))));
    ("core.commit_queue.max_wait_sim_ms", percentile waits 100. /. 1e6);
    ( "core.buffer_cache.hit_ratio",
      ratio (sum (fun s -> s.D.cache_hits) sims) (sum (fun s -> s.D.gets) sims) );
    ( "core.reader.storage_reads_per_get",
      ratio (sum (fun s -> s.D.storage_reads) sims) (sum (fun s -> s.D.gets) sims) );
    ( "core.reader.read_block_msgs_per_storage_read",
      ratio (sum (fun s -> s.D.reader_ios) sims) (sum (fun s -> s.D.reader_reads) sims) );
    ("core.recovery.sim_ms", ratio (sum (fun s -> s.D.recovery_sim_ns) sims) recoveries /. 1e6);
    ("core.recovery.records_examined", ratio (sum (fun s -> s.D.records_examined) sims) recoveries);
    ("core.recovery.probes_sent", ratio (sum (fun s -> s.D.probes_sent) sims) recoveries);
    ("core.replica.lag_p99_sim_us", us lag);
    ( "quorum.replacement_hydrate_sim_ms",
      ratio (sum (fun s -> s.D.hydrate_ns) sims) (sum (fun s -> s.D.replaced) sims) /. 1e6 );
    ("failed_op_frac", 1. -. ok_first);
    ("commit_samples", float_of_int (Array.length commits));
    ("read_samples", float_of_int (Array.length reads));
    ("commit_tail_pct", commit_tail);
    ("read_tail_pct", read_tail);
    ("requests", float_of_int issued);
    ("reads_failed", float_of_int (sum (fun s -> s.D.read_errors) sims));
  ]

let commits_per_wall_s (r : D.round) = ratio r.D.sim.D.acked r.D.wall_ns *. 1e9

(* Wall-clock end-to-end metrics over the untraced timed rounds. *)
let wall_metrics ~(plain : D.round list) ~setups ~peak_heap_words =
  [
    ("commits_per_wall_s", median (List.map commits_per_wall_s plain));
    ("setup_s", median (List.map (fun ns -> float_of_int ns /. 1e9) setups));
    ("peak_heap_mb", float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1e6);
    ( "minor_words_per_commit",
      median
        (List.map
           (fun (r : D.round) ->
             if r.D.sim.D.acked = 0 then 0. else r.D.minor_words /. float_of_int r.D.sim.D.acked)
           plain) );
  ]

(* The traced rounds' (whole window, first quarter, last quarter)
   counters, summed. *)
let pooled_windows (traced : D.round list) =
  match List.filter_map (fun (r : D.round) -> r.D.tracer) traced with
  | [] -> None
  | w :: rest ->
    Some
      (List.fold_left
         (fun (w, f, l) (w', f', l') -> (Tracer.add w w', Tracer.add f f', Tracer.add l l'))
         w rest)

(* Per-layer wall-clock metrics, pooled over the traced rounds. *)
let traced_metrics ~(plain : D.round list) ~(traced : D.round list) =
  match pooled_windows traced with
  | None -> []
  | Some (whole, first, last) ->
    let acked = sum (fun (r : D.round) -> r.D.sim.D.acked) traced in
    let suffix sfx = List.map (fun (n, v) -> (n ^ sfx, v)) in
    List.mapi
      (fun i k ->
        ( "simnet.msgs_per_commit." ^ Recorder.Event.msg_kind_name k,
          ratio whole.Tracer.sent.(i) acked ))
      (Array.to_list Tracer.kinds)
    @ Tracer.self_times whole
    @ suffix ".q1" (Tracer.self_times first)
    @ suffix ".q4" (Tracer.self_times last)
    @ [
        ( "storage.minor_words_per_apply",
          Tracer.per whole.Tracer.apply.Tracer.p_minor whole.Tracer.apply.Tracer.p_calls );
      ]
    @ List.mapi
        (fun i name ->
          ( "core.database." ^ name ^ "_ns",
            Tracer.per whole.Tracer.call_ns.(i) whole.Tracer.call_count.(i) ))
        (Array.to_list Tracer.call_names)
    @ [
        ( "core.recovery.wall_ms",
          ratio
            (sum (fun (r : D.round) -> r.D.recovery_wall_ns) traced)
            (sum (fun (r : D.round) -> r.D.sim.D.recoveries) traced)
          /. 1e6 );
        ( "perf.tracing_overhead",
          median (List.map commits_per_wall_s traced) /. median (List.map commits_per_wall_s plain) );
        ( "perf.self_time_coverage",
          ratio (Tracer.sum whole.Tracer.event_ns) (sum (fun (r : D.round) -> r.D.wall_ns) traced) );
      ]

(* Where the traced wall time went, by the kind of event dispatched. *)
let event_table (traced : D.round list) =
  match pooled_windows traced with
  | None -> []
  | Some (whole, _, _) ->
    let names = Array.to_list (Array.map Recorder.Event.msg_kind_name Tracer.kinds) @ [ "timer" ] in
    List.mapi (fun i n -> (n, whole.Tracer.event_count.(i), whole.Tracer.event_ns.(i))) names
