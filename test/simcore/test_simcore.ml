(* Unit and property tests for the simulation substrate. *)
open Simcore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Heap ---- *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2; 7; 4; 6; 0 ];
  let out = List.init 10 (fun _ -> Heap.pop_exn h) in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] out;
  check_bool "empty" true (Heap.is_empty h)

let test_heap_peek_pop () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h);
  Heap.push h 42;
  Alcotest.(check (option int)) "peek" (Some 42) (Heap.peek h);
  check_int "length" 1 (Heap.length h);
  Alcotest.(check (option int)) "pop" (Some 42) (Heap.pop h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) xs;
      let out = List.map (fun _ -> Heap.pop_exn h) xs in
      out = List.sort Int.compare xs)

(* ---- Rng ---- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let c = Rng.split a in
  check_bool "split differs from parent" true (Rng.bits64 a <> Rng.bits64 c)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 5 9 in
    check_bool "in inclusive range" true (v >= 5 && v <= 9)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng ~mean:100.
  done;
  let mean = !acc /. float_of_int n in
  check_bool "mean within 5%" true (abs_float (mean -. 100.) < 5.)

let test_rng_bernoulli () =
  let rng = Rng.create 13 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. 10_000. in
  check_bool "p within 2%" true (abs_float (p -. 0.3) < 0.02)

let test_rng_sample_without_replacement () =
  let rng = Rng.create 17 in
  let arr = Array.init 10 (fun i -> i) in
  for _ = 1 to 50 do
    let s = Rng.sample_without_replacement rng 4 arr in
    check_int "size" 4 (Array.length s);
    let l = Array.to_list s in
    check_int "distinct" 4 (List.length (List.sort_uniq Int.compare l))
  done

(* ---- Sim ---- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~delay:(Time_ns.ms 5) (fun () -> log := 2 :: !log));
  ignore (Sim.schedule sim ~delay:(Time_ns.ms 1) (fun () -> log := 1 :: !log));
  ignore (Sim.schedule sim ~delay:(Time_ns.ms 9) (fun () -> log := 3 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" (Time_ns.ms 9) (Sim.now sim)

let test_sim_fifo_same_instant () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.schedule sim ~delay:(Time_ns.ms 1) (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let id = Sim.schedule sim ~delay:(Time_ns.ms 1) (fun () -> fired := true) in
  Sim.cancel sim id;
  Sim.run sim;
  check_bool "cancelled" false !fired

let test_sim_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule sim ~delay:(Time_ns.ms i) (fun () -> incr count))
  done;
  Sim.run_until sim (Time_ns.ms 5);
  check_int "only first five" 5 !count;
  check_int "clock at limit" (Time_ns.ms 5) (Sim.now sim);
  Sim.run sim;
  check_int "rest run" 10 !count

let test_sim_every () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.every sim ~interval:(Time_ns.ms 10) (fun () ->
      incr count;
      !count < 3);
  Sim.run sim;
  check_int "stopped after returning false" 3 !count

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Sim.schedule sim ~delay:Time_ns.zero (fun () ->
                log := "inner" :: !log))));
  Sim.run sim;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log)

let test_sim_stats_counters () =
  let sim = Sim.create () in
  let st = Sim.stats sim in
  Alcotest.(check int) "fresh sim: nothing processed" 0 st.Sim.processed;
  Alcotest.(check int) "fresh sim: empty heap" 0 st.Sim.max_heap_depth;
  for i = 1 to 4 do
    ignore (Sim.schedule sim ~delay:(Time_ns.ms i) (fun () -> ()) : Sim.event_id)
  done;
  let st = Sim.stats sim in
  Alcotest.(check int) "pending counts queued events" 4 st.Sim.pending;
  Alcotest.(check int) "high-water mark tracks the queue" 4 st.Sim.max_heap_depth;
  ignore (Sim.step sim : bool);
  Sim.run sim;
  let st = Sim.stats sim in
  Alcotest.(check int) "all events processed" 4 st.Sim.processed;
  Alcotest.(check int) "queue drained" 0 st.Sim.pending;
  Alcotest.(check int) "high-water mark survives the drain" 4 st.Sim.max_heap_depth;
  (* Cancelled events still occupied the heap, so they raise the mark but
     never count as processed. *)
  let sim2 = Sim.create () in
  let id = Sim.schedule sim2 ~delay:(Time_ns.ms 1) (fun () -> ()) in
  Sim.cancel sim2 id;
  Sim.run sim2;
  let st2 = Sim.stats sim2 in
  Alcotest.(check int) "cancelled events are not processed" 0 st2.Sim.processed;
  Alcotest.(check int) "but they did enter the heap" 1 st2.Sim.max_heap_depth

(* ---- Distribution ---- *)

let test_distribution_constant () =
  let rng = Rng.create 3 in
  let d = Distribution.constant (Time_ns.us 100) in
  for _ = 1 to 10 do
    check_int "constant" (Time_ns.us 100) (Distribution.sample d rng)
  done

let test_distribution_uniform_bounds () =
  let rng = Rng.create 5 in
  let d = Distribution.uniform ~lo:(Time_ns.us 10) ~hi:(Time_ns.us 20) in
  for _ = 1 to 1000 do
    let v = Distribution.sample d rng in
    check_bool "in bounds" true (v >= Time_ns.us 10 && v <= Time_ns.us 20)
  done

let test_distribution_shifted () =
  let rng = Rng.create 5 in
  let d = Distribution.shifted (Time_ns.ms 1) (Distribution.constant (Time_ns.us 5)) in
  check_int "shift" (Time_ns.add (Time_ns.ms 1) (Time_ns.us 5)) (Distribution.sample d rng)

let test_distribution_mixture () =
  let rng = Rng.create 9 in
  let d =
    Distribution.mixture
      [ (0.5, Distribution.constant 10); (0.5, Distribution.constant 20) ]
  in
  let tens = ref 0 and twenties = ref 0 in
  for _ = 1 to 2000 do
    match Distribution.sample d rng with
    | 10 -> incr tens
    | 20 -> incr twenties
    | v -> Alcotest.failf "unexpected sample %d" v
  done;
  check_bool "both sides drawn" true (!tens > 800 && !twenties > 800)

let test_distribution_lognormal_median () =
  let rng = Rng.create 15 in
  let d = Distribution.lognormal ~median:(Time_ns.us 100) ~sigma:0.5 in
  let below = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Distribution.sample d rng < Time_ns.us 100 then incr below
  done;
  let frac = float_of_int !below /. float_of_int n in
  check_bool "median splits samples" true (abs_float (frac -. 0.5) < 0.03)

(* ---- Histogram ---- *)

let test_histogram_empty () =
  let h = Histogram.create () in
  check_int "count" 0 (Histogram.count h);
  check_int "p50" 0 (Histogram.percentile h 50.);
  check_int "max" 0 (Histogram.max_value h)

let test_histogram_exact_small () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  check_int "count" 10 (Histogram.count h);
  check_int "min" 1 (Histogram.min_value h);
  check_int "max" 10 (Histogram.max_value h);
  check_int "p50 small values exact" 5 (Histogram.percentile h 50.);
  check_int "p100" 10 (Histogram.percentile h 100.)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 5;
  Histogram.record b 1000;
  let m = Histogram.merge a b in
  check_int "count" 2 (Histogram.count m);
  check_int "min" 5 (Histogram.min_value m);
  check_int "max" 1000 (Histogram.max_value m)

let prop_histogram_percentile_close =
  QCheck.Test.make ~name:"histogram percentile within 7% of exact" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 10 200) (int_range 0 10_000_000)) (int_range 1 99))
    (fun (xs, p) ->
      QCheck.assume (xs <> []);
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      let sorted = List.sort Int.compare xs in
      let n = List.length sorted in
      let idx =
        let r = int_of_float (ceil (float_of_int p /. 100. *. float_of_int n)) in
        max 0 (min (n - 1) (r - 1))
      in
      let exact = List.nth sorted idx in
      let approx = Histogram.percentile h (float_of_int p) in
      (* log-bucketed: relative error bounded by sub-bucket width *)
      approx >= exact && float_of_int approx <= (float_of_int exact *. 1.07) +. 1.)

let test_histogram_mean_stddev () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 10; 20; 30 ];
  check_bool "mean" true (abs_float (Histogram.mean h -. 20.) < 0.001);
  check_bool "stddev" true (abs_float (Histogram.stddev h -. 8.165) < 0.01)

let test_histogram_windowed_snapshot () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3 ];
  let s = Histogram.snapshot h in
  check_int "empty window count" 0 (Histogram.count_since h s);
  check_int "empty window p99" 0 (Histogram.percentile_since h s 99.);
  List.iter (Histogram.record h) [ 10; 11; 12; 13 ];
  check_int "window count" 4 (Histogram.count_since h s);
  (* The window sees only the post-snapshot values, not the 1-3 prefix. *)
  check_int "window p50" 11 (Histogram.percentile_since h s 50.);
  check_int "window p100" 13 (Histogram.percentile_since h s 100.);
  check_int "whole-run view spans both windows" 10 (Histogram.percentile h 50.);
  let other = Histogram.create () in
  Alcotest.check_raises "foreign snapshot rejected"
    (Invalid_argument
       "Histogram.percentile_since: snapshot from another histogram")
    (fun () -> ignore (Histogram.percentile_since other s 50. : int))

(* ---- Stats ---- *)

let test_ewma () =
  let e = Stats.Ewma.create ~alpha:0.5 ~init:0. in
  Stats.Ewma.observe e 10.;
  check_bool "first" true (Stats.Ewma.value e = 5.);
  Stats.Ewma.observe e 10.;
  check_bool "second" true (Stats.Ewma.value e = 7.5);
  check_int "count" 2 (Stats.Ewma.observations e)

(* ---- Time ---- *)

let test_time_units () =
  check_int "us" 1_000 (Time_ns.us 1);
  check_int "ms" 1_000_000 (Time_ns.ms 1);
  check_int "sec" 1_000_000_000 (Time_ns.sec 1);
  check_int "of_float_us" 1_500 (Time_ns.of_float_us 1.5);
  Alcotest.(check string) "pp ms" "1.50ms" (Time_ns.to_string (Time_ns.us 1500))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "simcore"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "peek/pop" `Quick test_heap_peek_pop;
          qc prop_heap_sorts;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
        ] );
      ( "sim",
        [
          Alcotest.test_case "time ordering" `Quick test_sim_ordering;
          Alcotest.test_case "fifo ties" `Quick test_sim_fifo_same_instant;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "run_until" `Quick test_sim_run_until;
          Alcotest.test_case "every" `Quick test_sim_every;
          Alcotest.test_case "nested schedule" `Quick test_sim_nested_schedule;
          Alcotest.test_case "dispatch stats" `Quick test_sim_stats_counters;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "constant" `Quick test_distribution_constant;
          Alcotest.test_case "uniform bounds" `Quick test_distribution_uniform_bounds;
          Alcotest.test_case "shifted" `Quick test_distribution_shifted;
          Alcotest.test_case "mixture" `Quick test_distribution_mixture;
          Alcotest.test_case "lognormal median" `Quick
            test_distribution_lognormal_median;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "exact small" `Quick test_histogram_exact_small;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "mean/stddev" `Quick test_histogram_mean_stddev;
          Alcotest.test_case "windowed snapshot" `Quick
            test_histogram_windowed_snapshot;
          qc prop_histogram_percentile_close;
        ] );
      ( "stats",
        [
          Alcotest.test_case "ewma" `Quick test_ewma;
        ] );
      ("time", [ Alcotest.test_case "units" `Quick test_time_units ]);
    ]
