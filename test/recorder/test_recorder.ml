(* Tests for lib/recorder: qcheck event encode/decode round-trips, ring
   bounds and eviction, artifact JSON round-trips, the crash/recover
   fenced-writer event ordering, and a golden fixture pinning the bytes of
   [aurora_cli explain] for a curated vopr scenario. *)

module Event = Recorder.Event
module Rings = Recorder.Rings
module Correlate = Recorder.Correlate
module Artifact = Recorder.Artifact

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- event encode/decode ---- *)

(* Any event the constructors can express — ids and LSNs both in-range and
   -1 ("not applicable"), every message kind, drop cause, membership phase
   and health edge. *)
let event_gen =
  let open QCheck.Gen in
  let id = frequency [ (5, int_range 0 99); (1, return (-1)) ] in
  let lsn = frequency [ (5, int_range 0 1_000_000); (1, return (-1)) ] in
  let kind = oneofl Event.all_msg_kinds in
  let cause = oneofl Event.all_drop_causes in
  let net ctor =
    let* kind = kind in
    let* peer = int_range 0 99 in
    let* pg = id in
    let* lsn_lo = lsn in
    let* lsn_hi = lsn in
    return (ctor kind peer pg lsn_lo lsn_hi)
  in
  oneof
    [
      net (fun kind peer pg lsn_lo lsn_hi ->
          Event.Send { kind; peer; pg; lsn_lo; lsn_hi });
      net (fun kind peer pg lsn_lo lsn_hi ->
          Event.Receive { kind; peer; pg; lsn_lo; lsn_hi });
      (let* cause = cause in
       net (fun kind peer pg lsn_lo lsn_hi ->
           Event.Drop { kind; peer; pg; lsn_lo; lsn_hi; cause }));
      (let* pg = id in
       let* scl = lsn in
       let* stored = int_range 0 50 in
       return (Event.Scl_advance { pg; scl; stored }));
      (let* pg = id in
       let* scl = lsn in
       let* filled = int_range 0 50 in
       return (Event.Gossip_fill { pg; scl; filled }));
      (let* pg = id in
       let* scl = lsn in
       return (Event.Hydrate_import { pg; scl }));
      map (fun vcl -> Event.Vcl_advance { vcl }) lsn;
      map (fun vdl -> Event.Vdl_advance { vdl }) lsn;
      (let* pg = id in
       let* floor = lsn in
       return (Event.Pgmrpl_advance { pg; floor }));
      (let* pg = id in
       let* volume_epoch = int_range 0 20 in
       let* membership_epoch = int_range 0 20 in
       return (Event.Epoch_change { pg; volume_epoch; membership_epoch }));
      (let* txn = int_range 0 9999 in
       let* scn = lsn in
       return (Event.Commit_submit { txn; scn }));
      (let* txn = int_range 0 9999 in
       let* scn = lsn in
       return (Event.Commit_ack { txn; scn }));
      return Event.Started;
      return Event.Crashed;
      return Event.Destroyed;
      map (fun epoch -> Event.Fenced { epoch }) (int_range 0 20);
      map (fun epoch -> Event.Recovery_start { epoch }) (int_range 0 20);
      (let* vcl = lsn in
       let* vdl = lsn in
       return (Event.Recovery_finish { vcl; vdl }));
      (let* pg = id in
       let* epoch = int_range 0 20 in
       let* phase = oneofl Event.all_membership_phases in
       return (Event.Membership_change { pg; epoch; phase }));
      (let* pg = id in
       let* edge = oneofl Obs.Health.all_edges in
       return (Event.Health_edge { pg; edge }));
    ]

let prop_event_roundtrip =
  QCheck.Test.make ~name:"event to_json/of_json is the identity" ~count:500
    (QCheck.make ~print:Event.describe event_gen)
    (fun ev ->
      match Event.of_json (Event.to_json ev) with
      | Ok ev' -> Event.equal ev ev'
      | Error _ -> false)

(* The artifact reader parses printed JSON, so the trip must also survive
   the text layer (and the "at" field an artifact splices in). *)
let prop_event_roundtrip_via_text =
  QCheck.Test.make ~name:"event survives print-then-parse JSON text"
    ~count:200
    (QCheck.make ~print:Event.describe event_gen)
    (fun ev ->
      let txt = Obs.Json.to_string (Event.to_json ev) in
      match Obs.Json.of_string txt with
      | Error _ -> false
      | Ok j -> (
        match Event.of_json j with
        | Ok ev' -> Event.equal ev ev'
        | Error _ -> false))

let test_event_names () =
  List.iter
    (fun k ->
      check_bool (Event.msg_kind_name k) true
        (Event.msg_kind_of_name (Event.msg_kind_name k) = Some k))
    Event.all_msg_kinds;
  List.iter
    (fun r ->
      check_bool (Event.role_name r) true
        (Event.role_of_name (Event.role_name r) = Some r))
    Event.all_roles;
  List.iter
    (fun c ->
      check_bool (Event.drop_cause_name c) true
        (Event.drop_cause_of_name (Event.drop_cause_name c) = Some c))
    Event.all_drop_causes;
  List.iter
    (fun p ->
      check_bool (Event.membership_phase_name p) true
        (Event.membership_phase_of_name (Event.membership_phase_name p) = Some p))
    Event.all_membership_phases;
  List.iter
    (fun e ->
      check_bool (Obs.Health.edge_name e) true
        (Obs.Health.edge_of_name (Obs.Health.edge_name e) = Some e))
    Obs.Health.all_edges

(* ---- rings ---- *)

let test_ring_depth_bounds () =
  check_bool "defaults in range" true
    (Rings.default_depth >= Rings.min_depth
    && Rings.default_depth <= Rings.max_depth);
  let raises depth =
    Alcotest.check_raises (Printf.sprintf "depth %d" depth)
      (Invalid_argument
         (Printf.sprintf "Recorder.Rings.enable: depth %d outside [%d, %d]"
            depth Rings.min_depth Rings.max_depth)) (fun () ->
        Rings.enable (Rings.create ()) ~depth)
  in
  raises (Rings.min_depth - 1);
  raises (Rings.max_depth + 1)

let test_ring_eviction () =
  let r = Rings.create () in
  Rings.enable r ~depth:Rings.min_depth;
  Rings.register r ~node:3 ~role:Event.Storage;
  for i = 1 to Rings.min_depth + 4 do
    Rings.note r ~node:3 ~at:i (Event.Vcl_advance { vcl = i })
  done;
  let snap = Rings.snapshot r in
  match snap.Rings.nodes with
  | [ r ] ->
    check_int "node id" 3 r.Rings.node;
    check_bool "role kept" true (r.Rings.role = Event.Storage);
    check_int "capacity bounds retention" Rings.min_depth
      (List.length r.Rings.events);
    check_int "evicted counted" 4 r.Rings.evicted;
    (* Oldest events fell off the front; order is preserved. *)
    (match r.Rings.events with
    | (at0, Event.Vcl_advance { vcl }) :: _ ->
      check_int "oldest retained" 5 at0;
      check_int "payload matches" 5 vcl
    | _ -> Alcotest.fail "unexpected first event");
    (match List.rev r.Rings.events with
    | (at_last, _) :: _ ->
      check_int "newest retained" (Rings.min_depth + 4) at_last
    | [] -> Alcotest.fail "empty ring")
  | rings -> Alcotest.failf "expected one ring, got %d" (List.length rings)

let test_ring_disabled_is_noop () =
  let r = Rings.create () in
  check_bool "off by default" false (Rings.enabled r);
  Rings.register r ~node:9 ~role:Event.Storage;
  Rings.note r ~node:9 ~at:1 Event.Started;
  check_int "nothing recorded while off" 0
    (List.length (Rings.snapshot r).Rings.nodes);
  (* Switching on does not resurrect what was noted while off. *)
  Rings.enable r ~depth:Rings.min_depth;
  match (Rings.snapshot r).Rings.nodes with
  | [ n ] -> check_int "ring starts empty" 0 (List.length n.Rings.events)
  | ns -> Alcotest.failf "expected one ring, got %d" (List.length ns)

(* ---- per-cluster recorders ---- *)

let small_cluster ?recorder_depth seed =
  let c =
    Harness.Cluster.create ?recorder_depth
      { Harness.Cluster.default_config with seed; n_pgs = 1 }
  in
  ignore (Harness.Cluster.add_replica c : Aurora_core.Replica.t);
  c

let run_briefly c =
  let sim = Harness.Cluster.sim c in
  let db = Harness.Cluster.db c in
  let txn = Aurora_core.Database.begin_txn db in
  Aurora_core.Database.put db ~txn ~key:"k" ~value:"v";
  Aurora_core.Database.commit db ~txn (fun _ -> ());
  Simcore.Sim.run_until sim
    (Simcore.Time_ns.add (Simcore.Sim.now sim) (Simcore.Time_ns.ms 50))

let roles c =
  List.map
    (fun (r : Rings.node_ring) -> Event.role_name r.Rings.role)
    (Rings.snapshot (Harness.Cluster.recorder c)).Rings.nodes
  |> List.sort_uniq String.compare

(* Two clusters in one process: only the one recording keeps events. *)
let test_two_clusters () =
  let on = small_cluster ~recorder_depth:Rings.default_depth 1 in
  let off = small_cluster 1 in
  run_briefly on;
  run_briefly off;
  let events c =
    List.fold_left
      (fun acc (r : Rings.node_ring) -> acc + List.length r.Rings.events)
      0
      (Rings.snapshot (Harness.Cluster.recorder c)).Rings.nodes
  in
  check_bool "recording cluster recorded" true (events on > 0);
  check_bool "other cluster's recorder is off" false
    (Rings.enabled (Harness.Cluster.recorder off));
  check_int "other cluster recorded nothing" 0 (events off)

(* Roles are registered at build time, so switching the recorder on after
   [Cluster.create] still labels every node — none is [Unknown]. *)
let test_roles_before_enable () =
  let c = small_cluster 2 in
  Rings.enable (Harness.Cluster.recorder c) ~depth:Rings.default_depth;
  run_briefly c;
  Alcotest.(check (list string))
    "writer, storage and replica rings" [ "replica"; "storage"; "writer" ]
    (roles c)

(* ---- artifact round-trip ---- *)

(* A small two-node recorder with a send, its receive, an SCL advance and
   a partition drop. *)
let sample_rings () =
  let r = Rings.create () in
  Rings.enable r ~depth:Rings.min_depth;
  Rings.register r ~node:0 ~role:Event.Writer;
  Rings.register r ~node:1 ~role:Event.Storage;
  Rings.note r ~node:0 ~at:10
    (Event.Send
       { kind = Event.Write_batch; peer = 1; pg = 0; lsn_lo = 5; lsn_hi = 9 });
  Rings.note r ~node:1 ~at:12
    (Event.Receive
       { kind = Event.Write_batch; peer = 0; pg = 0; lsn_lo = 5; lsn_hi = 9 });
  Rings.note r ~node:1 ~at:13 (Event.Scl_advance { pg = 0; scl = 9; stored = 5 });
  Rings.note r ~node:0 ~at:20
    (Event.Drop
       {
         kind = Event.Write_batch;
         peer = 1;
         pg = 0;
         lsn_lo = 9;
         lsn_hi = 11;
         cause = Event.Partitioned;
       });
  r

let sample_net =
    {
      Artifact.sent = 4;
      delivered = 3;
      dropped_down = 0;
      dropped_blocked = 0;
      dropped_partition = 1;
      dropped_random = 0;
      links =
        [
          {
            Artifact.src = 0;
            dst = 1;
            l_sent = 4;
            l_delivered = 3;
            l_down = 0;
            l_blocked = 0;
            l_partition = 1;
            l_random = 0;
          };
        ];
    }

let test_artifact_roundtrip () =
  let net = sample_net in
  let a = Artifact.make ~snapshot:(Rings.snapshot (sample_rings ())) ~net () in
  let txt = Artifact.to_string a in
  (match Artifact.of_string txt with
  | Error e -> Alcotest.failf "artifact parse failed: %s" e
  | Ok a' ->
    check_string "byte-stable reprint" txt (Artifact.to_string a');
    check_int "rings survive" 2
      (List.length a'.Artifact.snapshot.Rings.nodes);
    check_bool "net survives" true (a'.Artifact.net = Some net));
  (* The drop's cause is visible in the explain text — the "why a send
     never arrived" satellite. *)
  let explained = Artifact.explain a (Artifact.Lsn 9) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  check_bool "drop cause surfaced" true (contains explained "drop(partitioned)");
  check_bool "per-link stats surfaced" true (contains explained "link n0->n1")

(* Every parser must return an error on malformed input and never raise:
   truncate a valid artifact (with random extra events on its rings)
   anywhere before its last byte, or overwrite one byte with anything.  A
   truncation must be an [Error]; a mutation may still be a valid
   artifact (a digit for a digit), but then it must reprint and reparse
   to itself. *)
let prop_artifact_corruption =
  let gen =
    let open QCheck.Gen in
    let* extra = list_size (int_range 0 6) event_gen in
    let r = sample_rings () in
    List.iteri (fun i ev -> Rings.note r ~node:(i land 1) ~at:(30 + i) ev) extra;
    let txt =
      Artifact.to_string
        (Artifact.make ~snapshot:(Rings.snapshot r) ~net:sample_net ())
    in
    let* truncate = bool in
    let* pos = int_bound (String.length (String.trim txt) - 1) in
    let* c = char in
    return
      ( truncate,
        if truncate then String.sub txt 0 pos
        else String.mapi (fun i x -> if i = pos then c else x) txt )
  in
  QCheck.Test.make ~name:"of_string never raises on corruption" ~count:300
    (QCheck.make ~print:(fun (t, s) -> Printf.sprintf "truncated=%b\n%s" t s) gen)
    (fun (truncated, txt) ->
      match Artifact.of_string txt with
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok a ->
        (not truncated)
        && Artifact.of_string (Artifact.to_string a) = Ok a)

(* ---- crash/recover ordering across the live stack ---- *)

(* A writer crash + recovery must leave the writer's ring telling the §2.4
   story in order: Crashed, then Recovery_start (the epoch bump that
   changes the locks), then Recovery_finish with the recovered VCL/VDL,
   then Started — and the storage fleet must have recorded the new volume
   epoch being installed (the fence that locks out the old writer). *)
let test_crash_recover_ordering () =
  (* Max ring depth: the writer's ring sees every send/receive, and the
     lifecycle events from t=300ms must survive to the end of the run. *)
  let sc =
    Vopr.Scenario.make ~name:"recorder-crash-recover" ~rate:400.
      ~duration_ms:700 ~quiesce_ms:900 ~recorder_depth:Rings.max_depth
      [
        Vopr.Scenario.step (Vopr.Scenario.at_ms 300) Vopr.Scenario.Crash_writer;
        Vopr.Scenario.step (Vopr.Scenario.at_ms 450)
          Vopr.Scenario.Recover_writer;
      ]
  in
  let o = Vopr.Runner.run ~seed:11 ~record_always:true sc in
  check_bool "run is clean" false (Vopr.Runner.failed o);
  let a =
    match o.Vopr.Runner.recorder with
    | Some a -> a
    | None -> Alcotest.fail "no recorder artifact"
  in
  let writer_ring =
    match
      List.find_opt
        (fun (r : Rings.node_ring) -> r.Rings.role = Event.Writer)
        a.Artifact.snapshot.Rings.nodes
    with
    | Some r -> r
    | None -> Alcotest.fail "no writer ring"
  in
  let index p =
    let rec go i = function
      | [] -> None
      | (_, ev) :: rest -> if p ev then Some i else go (i + 1) rest
    in
    go 0 writer_ring.Rings.events
  in
  let must what p =
    match index p with
    | Some i -> i
    | None -> Alcotest.failf "writer ring has no %s event" what
  in
  let crashed = must "Crashed" (fun ev -> ev = Event.Crashed) in
  let rec_start =
    must "Recovery_start" (function Event.Recovery_start _ -> true | _ -> false)
  in
  let rec_finish =
    must "Recovery_finish" (function
      | Event.Recovery_finish _ -> true
      | _ -> false)
  in
  ignore (must "a Started" (fun ev -> ev = Event.Started));
  (* The second Started (post-recovery) must follow Recovery_finish. *)
  let started_after_finish =
    let rec go i seen = function
      | [] -> seen
      | (_, Event.Started) :: rest when i > rec_finish -> go (i + 1) true rest
      | _ :: rest -> go (i + 1) seen rest
    in
    go 0 false writer_ring.Rings.events
  in
  let count p = List.length (List.filter (fun (_, ev) -> p ev) writer_ring.Rings.events) in
  check_int "one recovery, one Recovery_start" 1
    (count (function Event.Recovery_start _ -> true | _ -> false));
  check_int "one recovery, one Recovery_finish" 1
    (count (function Event.Recovery_finish _ -> true | _ -> false));
  check_bool "Crashed before Recovery_start" true (crashed < rec_start);
  check_bool "Recovery_start before Recovery_finish" true
    (rec_start < rec_finish);
  check_bool "Started follows Recovery_finish" true started_after_finish;
  (* Recovery_finish carries the recovered durability points. *)
  (match List.nth writer_ring.Rings.events rec_finish with
  | _, Event.Recovery_finish { vcl; vdl } ->
    check_bool "recovered VCL positive" true (vcl > 0);
    check_bool "recovered VDL sane" true (vdl >= 0 && vdl <= vcl)
  | _ -> assert false);
  (* The fence: some storage node recorded the bumped volume epoch. *)
  let fence_epoch =
    match List.nth writer_ring.Rings.events rec_start with
    | _, Event.Recovery_start { epoch } -> epoch
    | _ -> assert false
  in
  let storage_saw_fence =
    List.exists
      (fun (r : Rings.node_ring) ->
        r.Rings.role = Event.Storage
        && List.exists
             (fun (_, ev) ->
               match ev with
               | Event.Epoch_change { volume_epoch; _ } ->
                 volume_epoch >= fence_epoch
               | _ -> false)
             r.Rings.events)
      a.Artifact.snapshot.Rings.nodes
  in
  check_bool "storage installed the fencing epoch" true storage_saw_fence

(* ---- golden explain fixture ---- *)

(* Pins the exact bytes of [aurora_cli explain 400] for the curated
   writer-crash-recovery scenario at seed 1.  Regenerate (after a
   deliberate format change) with:
     dune exec bin/aurora_cli.exe -- explain 400 \
       --scenario writer-crash-recovery --seed 1 \
       > test/recorder/explain_writer_crash_recovery.golden *)
let test_golden_explain () =
  let sc =
    match Vopr.Curated.find "writer-crash-recovery" with
    | Some sc -> sc
    | None -> Alcotest.fail "curated scenario missing"
  in
  let o = Vopr.Runner.run ~seed:1 ~record_always:true sc in
  let a =
    match o.Vopr.Runner.recorder with
    | Some a -> a
    | None -> Alcotest.fail "no recorder artifact"
  in
  let got = Artifact.explain a (Artifact.Lsn 400) in
  let want =
    In_channel.with_open_bin "explain_writer_crash_recovery.golden"
      In_channel.input_all
  in
  check_string "golden explain bytes" want got

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "recorder"
    [
      ( "event",
        [
          qc prop_event_roundtrip;
          qc prop_event_roundtrip_via_text;
          Alcotest.test_case "name tables invert" `Quick test_event_names;
        ] );
      ( "rings",
        [
          Alcotest.test_case "depth bounds" `Quick test_ring_depth_bounds;
          Alcotest.test_case "eviction" `Quick test_ring_eviction;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_ring_disabled_is_noop;
          Alcotest.test_case "two clusters, one recording" `Quick
            test_two_clusters;
          Alcotest.test_case "roles known before enable" `Quick
            test_roles_before_enable;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "round-trip + explain" `Quick test_artifact_roundtrip;
          qc prop_artifact_corruption;
        ] );
      ( "stack",
        [
          Alcotest.test_case "crash/recover fencing order" `Slow
            test_crash_recover_ordering;
          Alcotest.test_case "golden explain" `Slow test_golden_explain;
        ] );
    ]
