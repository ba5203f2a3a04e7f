(* Tests for the experiment harness: cluster assembly, report rendering,
   and the fast deterministic experiments. *)
open Simcore
open Quorum
module Cluster = Harness.Cluster
module E = Harness.Experiments
module Database = Aurora_core.Database

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_report_rendering () =
  let r = Harness.Report.create ~title:"t" ~columns:[ "a"; "bb" ] in
  Harness.Report.row r [ "x"; "y" ];
  Harness.Report.row r [ "longer"; "z" ];
  Harness.Report.note r "note";
  let s = Harness.Report.to_string r in
  check_bool "title" true (String.length s > 0 && String.sub s 0 4 = "== t");
  check_bool "has note" true (contains s "note");
  check_bool "aligned" true (contains s "longer  z")

let test_cluster_assembly () =
  let cluster = Cluster.create { Cluster.default_config with seed = 3; n_pgs = 3 } in
  check_int "18 storage nodes" 18 (List.length (Cluster.storage_nodes cluster));
  check_int "members per pg" 6
    (List.length (Cluster.members_of_pg cluster (Storage.Pg_id.of_int 0)));
  check_bool "writer open" true (Database.is_open (Cluster.db cluster));
  (* Deterministic: same seed, same first latency sample behaviour. *)
  let c2 = Cluster.create { Cluster.default_config with seed = 3; n_pgs = 3 } in
  let run c =
    let db = Cluster.db c in
    let txn = Database.begin_txn db in
    Database.put db ~txn ~key:"k" ~value:"v";
    let at = ref Time_ns.zero in
    Database.commit db ~txn (fun _ -> at := Sim.now (Cluster.sim c));
    Sim.run_until (Cluster.sim c) (Time_ns.sec 1);
    !at
  in
  check_int "deterministic replay" (run cluster) (run c2)

let test_e3_exact () =
  let r = E.E3.run () in
  let e1, e2, e3 = r.E.E3.expected in
  check_int "pg1" e1 r.E.E3.pg1_pgcl;
  check_int "pg2" e2 r.E.E3.pg2_pgcl;
  check_int "vcl" e3 r.E.E3.vcl

let test_scheme_rules_safe () =
  List.iter
    (fun layout ->
      let rule = Membership.rule (Cluster.layout_membership layout) in
      check_bool "overlap" true
        (Quorum_set.overlaps ~read:rule.Quorum_set.Rule.read
           ~write:rule.Quorum_set.Rule.write))
    [ Cluster.V6; Cluster.V3; Cluster.Tiered ]

(* ---- fault API under load (the surface lib/vopr drives) ---- *)

let pg0 = Storage.Pg_id.of_int 0
let m id = Member_id.of_int id

let load_fixture ~seed =
  let cluster = Cluster.create { Cluster.default_config with seed } in
  let gen =
    Workload.Txn_gen.create
      ~sim:(Cluster.sim cluster)
      ~rng:(Rng.create (seed + 7919))
      ~db:(Cluster.db cluster)
      ~profile:Workload.Txn_gen.default_profile ()
  in
  Workload.Txn_gen.run_open_loop gen ~rate_per_sec:1500. ~duration:(Time_ns.ms 900);
  (cluster, gen)

(* Quiesce, then replay the durability oracle against the writer. *)
let audit cluster gen =
  Sim.run_until (Cluster.sim cluster)
    (Time_ns.add (Sim.now (Cluster.sim cluster)) (Time_ns.sec 2));
  let db = Cluster.db cluster in
  check_bool "writer open at audit" true (Database.is_open db);
  let checked, lost =
    E.audit_durability ~sim:(Cluster.sim cluster)
      ~get:(fun ~key cb -> Database.get db ~key cb)
      ~gen
  in
  check_bool "audited some keys" true (checked > 0);
  check_int "no acked write lost" 0 lost

let epoch_of cluster pg =
  let g = Aurora_core.Volume.find_pg (Database.volume (Cluster.db cluster)) pg in
  Epoch.to_int (Membership.epoch g.Aurora_core.Volume.membership)

let test_crash_restart_mid_commit () =
  let cluster, gen = load_fixture ~seed:11 in
  let sim = Cluster.sim cluster in
  (* Crash a member mid-stream — in-flight commits must keep acking off the
     remaining 5/6 — and bring it back while writes are still arriving. *)
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 150) (fun () ->
         Cluster.crash_storage_node cluster pg0 (m 0)));
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 400) (fun () ->
         Cluster.restart_storage_node cluster pg0 (m 0)));
  Sim.run_until sim (Time_ns.ms 1000);
  check_bool "commits progressed through the crash" true
    (Workload.Txn_gen.acked gen > 0);
  check_int "no commit failures" 0 (Workload.Txn_gen.failed gen);
  audit cluster gen

let test_destroy_then_replacement_catch_up () =
  let cluster, gen = load_fixture ~seed:12 in
  let sim = Cluster.sim cluster in
  let replacement = ref None in
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 150) (fun () ->
         Cluster.destroy_storage_node cluster pg0 (m 5);
         match Cluster.start_replacement cluster pg0 ~suspect:(m 5) with
         | Ok id -> replacement := Some id
         | Error e -> Alcotest.failf "start_replacement: %s" e));
  Sim.run_until sim (Time_ns.ms 1000);
  let id =
    match !replacement with
    | Some id -> id
    | None -> Alcotest.fail "replacement never started"
  in
  check_int "first epoch increment" 2 (epoch_of cluster pg0);
  (* The newcomer hydrates off a healthy peer while the write stream is
     live; once its SCL covers the group durable point the change lands. *)
  let deadline = Time_ns.add (Sim.now sim) (Time_ns.sec 10) in
  let rec wait () =
    if Cluster.replacement_caught_up cluster pg0 ~replacement:id then ()
    else if Sim.now sim >= deadline then
      Alcotest.fail "replacement never caught up"
    else begin
      Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.ms 50));
      wait ()
    end
  in
  wait ();
  (match Cluster.finish_replacement cluster pg0 ~suspect:(m 5) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "finish_replacement: %s" e);
  check_int "second epoch increment" 3 (epoch_of cluster pg0);
  check_int "roster back to six" 6
    (List.length (Cluster.members_of_pg cluster pg0));
  audit cluster gen

let test_fail_restore_az_under_load () =
  let cluster, gen = load_fixture ~seed:13 in
  let sim = Cluster.sim cluster in
  (* Losing a whole non-writer AZ leaves 4/6 in every group: writes stay
     available the entire time (Figure 1 row 3). *)
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 200) (fun () ->
         Cluster.fail_az cluster (Az.of_int 2)));
  let acked_mid = ref 0 in
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 550) (fun () ->
         acked_mid := Workload.Txn_gen.acked gen));
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 600) (fun () ->
         Cluster.restore_az cluster (Az.of_int 2)));
  Sim.run_until sim (Time_ns.ms 1000);
  check_bool "commits acked while the AZ was down" true
    (!acked_mid > 0 && Workload.Txn_gen.acked gen > !acked_mid);
  check_int "no commit failures" 0 (Workload.Txn_gen.failed gen);
  audit cluster gen

let test_partition_az_under_load () =
  let cluster, gen = load_fixture ~seed:14 in
  let sim = Cluster.sim cluster in
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 200) (fun () ->
         Cluster.partition_az cluster (Az.of_int 1)));
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 600) (fun () ->
         Cluster.heal_az cluster (Az.of_int 1)));
  Sim.run_until sim (Time_ns.ms 1000);
  let st = Simnet.Net.stats (Cluster.net cluster) in
  check_bool "partition drops attributed to the partition cause" true
    (st.Simnet.Net.dropped_partition > 0);
  check_bool "commits survived the partition" true
    (Workload.Txn_gen.acked gen > 0);
  audit cluster gen

let () =
  Alcotest.run "harness"
    [
      ("report", [ Alcotest.test_case "rendering" `Quick test_report_rendering ]);
      ( "cluster",
        [ Alcotest.test_case "assembly + determinism" `Slow test_cluster_assembly ]
      );
      ( "faults under load",
        [
          Alcotest.test_case "crash + restart mid-commit" `Slow
            test_crash_restart_mid_commit;
          Alcotest.test_case "destroy + replacement catch-up" `Slow
            test_destroy_then_replacement_catch_up;
          Alcotest.test_case "fail + restore AZ" `Slow
            test_fail_restore_az_under_load;
          Alcotest.test_case "partition + heal AZ" `Slow
            test_partition_az_under_load;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "E3 figure exact" `Quick test_e3_exact;
          Alcotest.test_case "scheme rules safe" `Quick test_scheme_rules_safe;
        ] );
    ]
