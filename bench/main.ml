(* Benchmark harness.

   Two parts:

   1. Experiment regeneration — one driver per figure / quantitative claim
      of the paper (E1..E10; see DESIGN.md §4).  Each prints a table in the
      paper's shape; EXPERIMENTS.md records paper-vs-measured.  This is the
      default output of `dune exec bench/main.exe`.

   2. Bechamel micro-benchmarks of the hot paths that make the paper's
      mechanisms cheap: consistency-point advancement, quorum-set
      evaluation, hot-log insertion/SCL tracking, histogram recording, and
      the simulator core.  Run with `dune exec bench/main.exe -- micro`.

   End-to-end throughput, latency and per-layer cost are measured by the
   repo benchmark in perfbench/ (see perfbench/README.md).

   The default (`dune exec bench/main.exe`) runs experiments + micro.

   All wall-clock reads go through Perf.Clock — the one module the
   aurora_lint determinism rule permits to touch real time. *)

open Simcore
module E = Harness.Experiments

let run_experiments () =
  let t0 = Perf.Clock.now_ns () in
  print_string (E.run_all ());
  Printf.printf "(experiments wall-clock: %.1fs)\n%!" (Perf.Clock.elapsed_s ~since:t0)

(* ---- Bechamel micro-benchmarks ---- *)

let bench_consistency () =
  (* One PG, 6 segments: submit+ack a record through PGCL/VCL advancement. *)
  let open Quorum in
  let c = Aurora_core.Consistency.create () in
  let pg = Storage.Pg_id.of_int 0 in
  let members = List.init 6 Member_id.of_int in
  Aurora_core.Consistency.register_pg c pg
    ~write_quorum:(Quorum_set.k_of 4 members);
  let lsn = ref 0 in
  let seg_arr = Array.of_list members in
  Bechamel.Staged.stage (fun () ->
      incr lsn;
      let l = Wal.Lsn.of_int !lsn in
      Aurora_core.Consistency.note_submitted c ~pg ~lsn:l ~mtr_end:true;
      for s = 0 to 3 do
        Aurora_core.Consistency.note_ack c ~pg ~seg:seg_arr.(s) ~scl:l
      done)

let bench_quorum_eval () =
  let open Quorum in
  let m = Harness.Cluster.layout_membership Harness.Cluster.Tiered in
  let rule = Membership.rule m in
  let ids = Member_id.Set.elements (Membership.member_ids m) in
  let subset = Member_id.set_of_list (List.filteri (fun i _ -> i < 4) ids) in
  Bechamel.Staged.stage (fun () ->
      ignore (Quorum_set.satisfied rule.Quorum_set.Rule.write subset : bool))

let bench_quorum_overlap () =
  let rule =
    Quorum.Membership.rule
      (Harness.Cluster.layout_membership Harness.Cluster.Tiered)
  in
  Bechamel.Staged.stage (fun () ->
      ignore
        (Quorum.Quorum_set.overlaps ~read:rule.Quorum.Quorum_set.Rule.read
           ~write:rule.Quorum.Quorum_set.Rule.write
          : bool))

let bench_hot_log () =
  let log = Wal.Hot_log.create () in
  let lsn = ref 0 in
  Bechamel.Staged.stage (fun () ->
      incr lsn;
      let r =
        Wal.Log_record.make ~lsn:(Wal.Lsn.of_int !lsn)
          ~prev_volume:(Wal.Lsn.of_int (!lsn - 1))
          ~prev_segment:(Wal.Lsn.of_int (!lsn - 1))
          ~prev_block:Wal.Lsn.none
          ~block:(Wal.Block_id.of_int (!lsn mod 64))
          ~txn:(Wal.Txn_id.of_int 1) ~mtr_id:!lsn ~mtr_end:true
          ~op:(Wal.Log_record.Put { key = "k"; value = "v" })
      in
      ignore (Wal.Hot_log.insert log r : Wal.Hot_log.insert_result))

let bench_histogram () =
  let h = Histogram.create () in
  let x = ref 17 in
  Bechamel.Staged.stage (fun () ->
      x := (!x * 1103515245) + 12345;
      Histogram.record h (abs !x mod 10_000_000))

let bench_sim_events () =
  let sim = Sim.create () in
  Bechamel.Staged.stage (fun () ->
      ignore (Sim.schedule sim ~delay:1 (fun () -> ()) : Sim.event_id);
      ignore (Sim.step sim : bool))

let bench_series_sample () =
  (* Steady-state sampler tick over a registry shaped like the cluster's:
     a handful of counters, one latency histogram percentile, gauges.
     Includes the occasional decimation pass, so this is the amortised
     per-tick cost the sim-clock timer pays. *)
  let reg = Obs.Registry.create () in
  let s = Obs.Series.create ~capacity:512 ~registry:reg () in
  let counters =
    List.init 8 (fun i ->
        let name = Printf.sprintf "bench_c%d" i in
        let c = Obs.Registry.counter reg name in
        Obs.Series.track_counter s name;
        c)
  in
  let h = Obs.Registry.histogram reg "bench_lat_ns" in
  Obs.Series.track_histogram s ~pct:99. "bench_lat_ns";
  let g = Obs.Registry.gauge reg "bench_gauge" in
  Obs.Series.track_gauge s "bench_gauge";
  let at = ref 0 in
  Bechamel.Staged.stage (fun () ->
      List.iter incr counters;
      Histogram.record h (at.contents land 0xffff);
      g := float_of_int !at;
      at := !at + 1_000_000;
      Obs.Series.sample s ~at:!at)

let bench_health_sample () =
  (* Full cluster-health probe: per-PG quorum margins by exhaustive subset
     enumeration (2 PGs x 2^6 subsets), AZ+1 tolerance, volume gaps. *)
  let cluster =
    Harness.Cluster.create { Harness.Cluster.default_config with seed = 3 }
  in
  Sim.run_until (Harness.Cluster.sim cluster) (Time_ns.ms 100);
  let at = ref (Sim.now (Harness.Cluster.sim cluster)) in
  Bechamel.Staged.stage (fun () ->
      incr at;
      ignore (Harness.Cluster.health_sample cluster ~at:!at : Obs.Health.sample))

let bench_zipf () =
  let z = Workload.Zipf.create ~n:100_000 ~theta:0.99 in
  let rng = Rng.create 7 in
  Bechamel.Staged.stage (fun () -> ignore (Workload.Zipf.sample z rng : int))

(* Run the suite and return OLS ns/op estimates, one row per benchmark, in
   declaration order. *)
let micro_estimates () =
  let open Bechamel in
  let open Toolkit in
  let tests =
    [
      Test.make ~name:"consistency: submit+4acks -> VCL" (bench_consistency ());
      Test.make ~name:"quorum-set: tiered write eval" (bench_quorum_eval ());
      Test.make ~name:"quorum-set: full overlap proof" (bench_quorum_overlap ());
      Test.make ~name:"hot-log: insert + SCL advance" (bench_hot_log ());
      Test.make ~name:"histogram: record" (bench_histogram ());
      Test.make ~name:"sim: schedule + dispatch event" (bench_sim_events ());
      Test.make ~name:"series: sampler tick (amortised)" (bench_series_sample ());
      Test.make ~name:"health: cluster probe + margins" (bench_health_sample ());
      Test.make ~name:"zipf: sample" (bench_zipf ());
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  List.concat_map
    (fun test ->
      let results = analyze (benchmark test) in
      let rows =
        Hashtbl.fold
          (fun name ols acc ->
            match Bechamel.Analyze.OLS.estimates ols with
            | Some [ est ] -> (name, Some est) :: acc
            | Some _ | None -> (name, None) :: acc)
          results []
      in
      (* One entry per test; sort for determinism if bechamel ever returns
         several. *)
      List.sort (fun (a, _) (b, _) -> String.compare a b) rows)
    tests

let run_micro () =
  Printf.printf "\n== Bechamel micro-benchmarks (ns/op) ==\n%!";
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Printf.printf "%-40s %12.1f ns/op\n%!" name est
      | None -> Printf.printf "%-40s (no estimate)\n%!" name)
    (micro_estimates ())

let () =
  let argv = Array.to_list Sys.argv in
  match argv with
  | [ _ ] | [ _; "all" ] ->
    run_experiments ();
    run_micro ()
  | [ _; "experiments" ] -> run_experiments ()
  | [ _; "micro" ] -> run_micro ()
  | _ :: other :: _ ->
    Printf.eprintf
      "unknown mode %S (use: experiments | micro | all)\n" other;
    exit 1
  | [] -> ()
