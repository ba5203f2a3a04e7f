(* Tests for the call-graph and coverage rules: a deliberately-dirty
   fixture library (compiled to real .cmt trees — see fixtures/typed/dune)
   is checked against a fixture-scoped rule config, one test per rule
   pinning the exact finding positions.  A meta-test then checks that the
   repo's baseline is empty, so the real tree is clean without
   suppression, and a final test pins the baseline writer's position
   ordering so --update-baseline output is byte-stable. *)

let fixture_dir = "fixtures/typed/.lint_typed_fixtures.objs/byte"
let fixture_units = lazy (Lint.Typed_loader.load_dir fixture_dir)
let fx name = "test/lint/fixtures/typed/" ^ name

let fixture_config : Lint.Typed_rules.config =
  {
    hot_roots =
      [
        "Lint_typed_fixtures.Tf_hot.entry";
        "Lint_typed_fixtures.Tf_hot.entry_ok";
      ];
    lib_scope = String.starts_with ~prefix:(fx "");
    describe_checks =
      [
        ( "Lint_typed_fixtures.Tf_proto.t",
          "Lint_typed_fixtures.Tf_proto.describe" );
      ];
    emit_checks = [ ("Lint_typed_fixtures.Tf_events.t", fx "tf_events.ml") ];
    poly_types = [ "Wal.Lsn.t" ];
  }

let fixture_findings =
  lazy
    (Lint.Engine.lint_units ~config:fixture_config ~sources:[]
       (Lazy.force fixture_units))

(* (file, line) sites for one rule — columns are the compiler's business. *)
let sites rule =
  List.filter_map
    (fun (f : Lint.Finding.t) ->
      if String.equal f.rule rule then Some (f.file, f.line) else None)
    (Lazy.force fixture_findings)

let check_sites msg expected rule =
  Alcotest.(check (list (pair string int))) msg expected (sites rule)

let test_loader () =
  let units = Lazy.force fixture_units in
  Alcotest.(check (list string))
    "six fixture units, wrapper module skipped, sorted by source"
    [
      fx "tf_emitter.ml";
      fx "tf_events.ml";
      fx "tf_global.ml";
      fx "tf_hot.ml";
      fx "tf_poly.ml";
      fx "tf_proto.ml";
    ]
    (List.map (fun (u : Lint.Typed_loader.unit_info) -> u.source) units);
  Alcotest.(check bool)
    "module names are normalized to dotted form" true
    (List.exists
       (fun (u : Lint.Typed_loader.unit_info) ->
         String.equal u.modname "Lint_typed_fixtures.Tf_hot")
       units)

(* The tuple in [helper] (line 7) and the blocklisted [string_of_int] in
   [shout] (line 9) are reachable from the hot root [entry] only through
   the call graph; [entry_ok] reaches only [@@alloc_ok]-blessed code and
   must contribute nothing. *)
let test_hot_alloc () =
  check_sites "call-graph-reachable allocations, annotated path clean"
    [ (fx "tf_hot.ml", 7); (fx "tf_hot.ml", 9) ]
    "typed-hot-alloc"

(* [naked] (line 5) and [covered] (line 6) carry no annotation — a reset
   function does not excuse [covered]; [blessed] carries [@@sim_global]. *)
let test_sim_global () =
  check_sites "every unannotated global is flagged"
    [ (fx "tf_global.ml", 5); (fx "tf_global.ml", 6) ]
    "typed-sim-global"

(* [describe]'s wildcard hides [Pong] (line 7) and [Ack] (line 8); the
   findings anchor to the constructor declarations. *)
let test_describe_coverage () =
  check_sites "wildcard-hidden constructors flagged at their declarations"
    [ (fx "tf_proto.ml", 7); (fx "tf_proto.ml", 8) ]
    "typed-describe-coverage"

(* [Seen] is built by Tf_emitter (outside the defining module); [Ignored]
   (line 7) is only built inside it, which must not count. *)
let test_event_emit () =
  check_sites "constructor never built outside the defining module"
    [ (fx "tf_events.ml", 7) ]
    "typed-event-emit"

(* Only lib/ code counts as an emitter: a test that builds every event
   constructor (as test_recorder does) must not make a dead event look
   live.  Moving the emitter fixture into test/ leaves [Seen] (line 6)
   unemitted too. *)
let test_event_emit_lib_only () =
  let units =
    List.map
      (fun (u : Lint.Typed_loader.unit_info) ->
        if String.equal u.source (fx "tf_emitter.ml") then
          { u with source = "test/fake/tf_emitter.ml" }
        else u)
      (Lazy.force fixture_units)
  in
  Alcotest.(check (list (pair string int)))
    "constructors built only in a test unit are not emitted"
    [ (fx "tf_events.ml", 6); (fx "tf_events.ml", 7) ]
    (List.filter_map
       (fun (f : Lint.Finding.t) ->
         if String.equal f.rule "typed-event-emit" then Some (f.file, f.line)
         else None)
       (Lint.Engine.lint_units ~config:fixture_config ~sources:[] units))

(* Polymorphic [=] at Wal.Lsn.t in [bad] (line 5); the int comparison in
   [good] is fine. *)
let test_poly_compare () =
  check_sites "polymorphic equality at a protocol type"
    [ (fx "tf_poly.ml", 5) ]
    "typed-poly-compare"

let test_no_extra_findings () =
  Alcotest.(check int)
    "the five rule tests account for every finding" 8
    (List.length (Lazy.force fixture_findings))

(* A renamed hot root, type, or total function must degrade loudly — to a
   finding anchored at the manifest pseudo-file — never to a silently
   disabled rule. *)
let test_manifest_rot () =
  let cfg : Lint.Typed_rules.config =
    {
      hot_roots = [ "Lint_typed_fixtures.Tf_hot.renamed" ];
      describe_checks =
        [
          ( "Lint_typed_fixtures.Tf_proto.gone",
            "Lint_typed_fixtures.Tf_proto.describe" );
        ];
      emit_checks =
        [ ("Lint_typed_fixtures.Tf_events.gone", fx "tf_events.ml") ];
      (* The fixture units stay in scope, so each stale entry is looked
         up among units that really exist; only the sim-global fixture is
         left out, keeping this test's findings to the manifest. *)
      lib_scope =
        (fun s ->
          String.starts_with ~prefix:(fx "") s
          && not (String.equal s (fx "tf_global.ml")));
      poly_types = [];
    }
  in
  let fs =
    Lint.Engine.lint_units ~config:cfg ~sources:[] (Lazy.force fixture_units)
  in
  Alcotest.(check (list (pair string string)))
    "one manifest-rot finding per stale entry, anchored to the pseudo-file"
    [
      ("(typed-lint-manifest)", "typed-describe-coverage");
      ("(typed-lint-manifest)", "typed-event-emit");
      ("(typed-lint-manifest)", "typed-hot-alloc");
    ]
    (List.map (fun (f : Lint.Finding.t) -> (f.file, f.rule)) fs)

(* The real tree is clean without suppression: the checked-in baseline
   freezes no finding, so the zero-finding result of the full-tree lint
   (lint's "real tree is clean" and the @lint gate) is not bought by
   baselining. *)
let test_real_tree_clean () =
  let path = "../../lint/baseline.txt" in
  if not (Sys.file_exists path) then
    Alcotest.failf "baseline not visible from the test directory: %s" path;
  Alcotest.(check int)
    "the baseline freezes no finding" 0
    (Lint.Baseline.size (Lint.Baseline.load path))

(* --update-baseline must write the same bytes for the same finding set
   regardless of input order or duplication: sorted by position (file,
   line, col, rule), deduplicated by key. *)
let test_baseline_order () =
  let mk rule file line col =
    Lint.Finding.make ~rule ~file ~line ~col "msg"
  in
  let findings =
    [
      mk "typed-hot-alloc" "lib/b.ml" 9 2;
      mk "determinism" "lib/a.ml" 12 0;
      mk "typed-hot-alloc" "lib/b.ml" 9 2;
      mk "stable-iteration" "lib/a.ml" 3 4;
    ]
  in
  let path = Filename.temp_file "aurora_lint_typed_baseline" ".txt" in
  let read () =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | line when line = "" || line.[0] = '#' -> go acc
      | line -> go (line :: acc)
    in
    let lines = go [] in
    close_in ic;
    lines
  in
  Lint.Baseline.save path findings;
  let first = read () in
  Alcotest.(check (list string))
    "keys deduplicated and in source-position order"
    [
      "stable-iteration|lib/a.ml|3|4";
      "determinism|lib/a.ml|12|0";
      "typed-hot-alloc|lib/b.ml|9|2";
    ]
    first;
  Lint.Baseline.save path (List.rev findings);
  let second = read () in
  Sys.remove path;
  Alcotest.(check (list string))
    "byte-stable under input permutation" first second

let () =
  Alcotest.run "typed_lint"
    [
      ("loader", [ Alcotest.test_case "fixture units" `Quick test_loader ]);
      ( "rules",
        [
          Alcotest.test_case "hot-alloc" `Quick test_hot_alloc;
          Alcotest.test_case "sim-global" `Quick test_sim_global;
          Alcotest.test_case "describe-coverage" `Quick
            test_describe_coverage;
          Alcotest.test_case "event-emit" `Quick test_event_emit;
          Alcotest.test_case "event-emit ignores test units" `Quick
            test_event_emit_lib_only;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "no extra findings" `Quick
            test_no_extra_findings;
          Alcotest.test_case "manifest rot is loud" `Quick test_manifest_rot;
        ] );
      ( "gate",
        [
          Alcotest.test_case "real tree clean" `Quick test_real_tree_clean;
          Alcotest.test_case "baseline ordering" `Quick test_baseline_order;
        ] );
    ]
