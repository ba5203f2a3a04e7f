(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A run is the workload's [rounds] distinct rounds (round seeds derived
   from --seed), repeated in that order until --seconds of wall time have
   been spent, and at least once.  With --trace 1 every round runs twice,
   untraced then traced.  Simulated metrics pool the first cycle; wall-clock
   metrics take the median over every timed round.  Each repeat of a round
   seed, traced or not, must reproduce the first cycle's simulated metrics
   exactly.

   Prints every metric as a text line with its unit, then, as the last line
   of standard output, one JSON object: end-to-end metrics with --trace 0,
   per-layer metrics with --trace 1.  Exits 1 if a correctness check fails,
   2 on a usage error. *)

let setups_timed = 41
let hard_cap_ns = 150_000_000_000
let round_seed seed i = (seed * 101) + i

let render sims = String.concat ";" (List.map (fun (n, v) -> Printf.sprintf "%s=%.17g" n v) sims)

let first_difference a b =
  List.find_map
    (fun ((n, x), (_, y)) ->
      if Float.equal x y then None else Some (Printf.sprintf "%s: %.17g vs %.17g" n x y))
    (List.combine a b)

let json_number v = Printf.sprintf "%.17g" v

let print_json ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, v, unit_) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " fields)

let run (a : Args.t) (spec : Spec.t) =
  (* Set-up time from back-to-back set-ups before any round, so every run
     times the same number on the same fresh heap. *)
  let setups =
    List.init setups_timed (fun i -> Round.setup_ns spec ~seed:(round_seed a.Args.seed i))
  in
  let t0 = Perf.Clock.now_ns () in
  let elapsed () = Perf.Clock.now_ns () - t0 in
  let modes = if a.Args.trace then [ Round.Plain; Round.Traced ] else [ Round.Plain ] in
  let per = List.length modes in
  let peak_heap_words = ref 0 in
  let schedule j =
    (round_seed a.Args.seed ((j / per) mod spec.Spec.rounds), List.nth modes (j mod per))
  in
  let rec loop j acc =
    let cycle_done = j >= spec.Spec.rounds * per && j mod per = 0 in
    if cycle_done && (elapsed () >= a.Args.seconds * 1_000_000_000 || elapsed () >= hard_cap_ns)
    then List.rev acc
    else begin
      let seed, mode = schedule j in
      let r = Round.run spec ~seed ~mode ~audit:(j = 0) in
      (* the heap high-water mark of the first pass, whatever the run length *)
      if j + 1 = spec.Spec.rounds * per then
        peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
      loop (j + 1) ((seed, mode, r) :: acc)
    end
  in
  let rounds = loop 0 [] in
  let problems = ref [] in
  let problem p = problems := p :: !problems in
  (* Canonical rounds: the first untraced round of each round seed. *)
  let canonical =
    List.filter_map
      (fun i ->
        let seed = round_seed a.Args.seed i in
        List.find_map
          (fun (s, m, r) -> if s = seed && m = Round.Plain then Some (seed, r) else None)
          rounds)
      (List.init spec.Spec.rounds Fun.id)
  in
  List.iteri
    (fun j (seed, mode, (r : Round.round)) ->
      let label = match mode with Round.Traced -> "traced" | _ -> "untraced" in
      List.iter (fun p -> problem (Printf.sprintf "round %d (%s): %s" j label p)) r.Round.problems;
      let reference = (List.assoc seed canonical).Round.sim in
      let mine = Report.sim_metrics [ r.Round.sim ] in
      let theirs = Report.sim_metrics [ reference ] in
      if not (String.equal (render mine) (render theirs)) then
        problem
          (Printf.sprintf "round %d (%s) does not reproduce seed %d's simulated metrics: %s" j label
             seed
             (Option.value (first_difference mine theirs) ~default:"?")))
    rounds;
  (* Expected fault outcomes, per round. *)
  let count f = List.length (List.filter f spec.Spec.faults) in
  let crashes = count (function Spec.Writer_crash _ -> true | _ -> false) in
  let replacements = count (function Spec.Replacement _ -> true | _ -> false) in
  List.iter
    (fun (_, (r : Round.round)) ->
      (* every round ends with one more writer restart *)
      if r.Round.sim.Round.recoveries <> crashes + 1 then
        problem
          (Printf.sprintf "%d of %d writer recoveries completed" r.Round.sim.Round.recoveries
             (crashes + 1));
      if r.Round.sim.Round.replaced <> replacements then
        problem
          (Printf.sprintf "%d of %d segment replacements completed" r.Round.sim.Round.replaced
             replacements))
    canonical;
  (* Invariant checkers on one fault round (they add probe transactions,
     so this round is not timed and not compared). *)
  if spec.Spec.faults <> [] then begin
    let r = Round.run spec ~seed:(round_seed a.Args.seed 0) ~mode:Round.Checked ~audit:true in
    List.iter (fun p -> problem ("checked round: " ^ p)) r.Round.problems
  end;
  let plain = List.filter_map (fun (_, m, r) -> if m = Round.Plain then Some r else None) rounds in
  let traced = List.filter_map (fun (_, m, r) -> if m = Round.Traced then Some r else None) rounds in
  let metrics =
    Report.wall_metrics ~plain ~setups ~peak_heap_words:!peak_heap_words
    @ Report.sim_metrics (List.map (fun (_, r) -> r.Round.sim) canonical)
    @ Report.traced_metrics ~plain ~traced
    @ [
        ("rounds_untraced", float_of_int (List.length plain));
        ("rounds_traced", float_of_int (List.length traced));
      ]
  in
  (* Text: every metric with its unit, in catalog order. *)
  Printf.printf "workload %s seed %d: %s\n%s at %.0f/s\n" spec.Spec.name a.Args.seed spec.Spec.why
    Spec.cluster_note spec.Spec.rate_per_s;
  List.iter
    (fun (n, _) -> if Catalog.find n = None then problem ("metric missing from the catalog: " ^ n))
    metrics;
  List.iter
    (fun (en : Catalog.entry) ->
      match List.assoc_opt en.Catalog.name metrics with
      | Some v ->
        if not (Float.is_finite v) then problem ("metric is not finite: " ^ en.Catalog.name);
        Printf.printf "%-52s %18.6f %s\n" en.Catalog.name v en.Catalog.unit_
      | None -> ())
    Catalog.all;
  List.iter
    (fun (n, count, ns) ->
      if count > 0 then
        Printf.printf "traced events %-24s %9d events %10.3f ms %9.0f ns/event\n" n count
          (float_of_int ns /. 1e6) (float_of_int ns /. float_of_int count))
    (Report.event_table traced);
  let scope = if a.Args.trace then Catalog.Per_layer else Catalog.End_to_end in
  let printed =
    List.map
      (fun name ->
        match (List.assoc_opt name metrics, Catalog.find name) with
        | Some v, Some en -> (name, (if Float.is_finite v then v else 0.), en.Catalog.unit_)
        | _ ->
          problem ("metric not measured: " ^ name);
          (name, 0., "count"))
      (Catalog.names scope)
  in
  let sims = List.map (fun (_, (r : Round.round)) -> r.Round.sim) canonical in
  let attempted = Report.sum (fun s -> s.Round.issued) sims in
  let failed = attempted - Report.sum (fun s -> s.Round.acked) sims in
  if attempted = 0 then problem "no requests were issued";
  List.iter problem
    (Catalog.check_manifest ~path:"BENCHMARK.json"
       ~workloads:(List.map (fun (w : Spec.t) -> w.Spec.name) Spec.all));
  let problems = List.rev !problems in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  print_json ~correct:(problems = []) ~attempted:(max 1 attempted) ~failed printed;
  if problems <> [] then exit 1

let () =
  match Args.parse (List.tl (Array.to_list Sys.argv)) with
  | Error e ->
    prerr_string ("error: " ^ e ^ "\n" ^ Args.usage);
    exit 2
  | Ok a -> (
    match Spec.find a.Args.workload with
    | None ->
      prerr_string ("error: unknown workload " ^ a.Args.workload ^ "\n" ^ Args.usage);
      exit 2
    | Some spec -> run a spec)
