(* Tests for the aurora_lint rules that are scoped by source path
   (determinism, stable-iteration, lsn-arith, mli-coverage, uncompiled) and
   for typed poly-compare on the same snippets.  The fixtures under
   fixtures/ are compiled as a library (see fixtures/dune); each test
   relabels a fixture unit's source path so rule scoping applies, then pins
   every finding by (rule, file, line).  Also: baseline round-trips, and a
   meta-test running the linter over the real tree (the same check
   `dune build @lint` enforces). *)

let fixture_units =
  lazy (Lint.Typed_loader.load_dir "fixtures/.lint_fixtures.objs/byte")

let fixture name =
  let source = "test/lint/fixtures/" ^ name in
  match
    List.find_opt
      (fun (u : Lint.Typed_loader.unit_info) -> String.equal u.source source)
      (Lazy.force fixture_units)
  with
  | Some u -> u
  | None -> Alcotest.failf "fixture %s not compiled" source

let relabel ~path name = { (fixture name) with Lint.Typed_loader.source = path }

(* The production rules minus the call-graph manifests, which name repo
   modules no fixture defines. *)
let no_manifests =
  {
    Lint.Typed_rules.default with
    hot_roots = [];
    describe_checks = [];
    emit_checks = [];
  }

(* Lint every source under [roots], as the driver does. *)
let lint_roots ?config roots =
  Lint.Engine.lint_units ?config
    ~sources:(Lint.Engine.sources roots)
    (Lint.Engine.units roots)

(* Lint one fixture as if it lived at [path]. *)
let lint_as ~path name =
  Lint.Engine.lint_units ~config:no_manifests ~sources:[]
    [ relabel ~path name ]

(* (rule, file, line) — the part of a finding fixtures pin down; columns
   are the compiler's business. *)
let shape (f : Lint.Finding.t) = (f.rule, f.file, f.line)

let check_shapes msg expected findings =
  Alcotest.(check (list (triple string string int)))
    msg expected (List.map shape findings)

let at file rule lines = List.map (fun line -> (rule, file, line)) lines

(* -- one fixture per rule ------------------------------------------------ *)

let test_determinism () =
  let path = "lib/fake/bad_determinism.ml" in
  check_shapes "five banned identifiers"
    (at path "determinism" [ 2; 3; 4; 5; 6 ])
    (lint_as ~path "bad_determinism.ml")

let test_stable_iteration () =
  let path = "lib/obs/bad_stable_iteration.ml" in
  check_shapes "iter and fold both flagged"
    (at path "stable-iteration" [ 2; 3 ])
    (lint_as ~path "bad_stable_iteration.ml")

let test_poly_compare () =
  let path = "lib/fake/bad_poly_compare.ml" in
  check_shapes
    "=, <>, compare, max, constrained min, and = on a Member_id.Set.t all \
     flagged"
    (at path "typed-poly-compare" [ 2; 3; 4; 5; 6; 7 ])
    (lint_as ~path "bad_poly_compare.ml")

let test_lsn_arith () =
  let path = "lib/fake/bad_lsn_arith.ml" in
  check_shapes "+, -, * on LSN-carrying operands"
    (at path "lsn-arith" [ 2; 3; 4 ])
    (lint_as ~path "bad_lsn_arith.ml")

(* Sites only name and type resolution show: [gettimeofday] through
   [open Unix] (line 6), and [=] between two locals of type Lsn.t
   (line 10). *)
let test_resolved () =
  let path = "lib/fake/bad_resolved.ml" in
  check_shapes "opened and local-typed sites flagged"
    [ ("determinism", path, 6); ("typed-poly-compare", path, 10) ]
    (lint_as ~path "bad_resolved.ml")

let test_mli_coverage () =
  let units =
    List.map
      (fun path -> relabel ~path "clean.ml")
      [ "lib/foo/a.ml"; "lib/foo/b.ml"; "bin/tool.ml" ]
  in
  (* b.ml lacks an interface; bin/ is out of scope. *)
  check_shapes "only the lib module without an mli"
    [ ("mli-coverage", "lib/foo/b.ml", 1) ]
    (Lint.Engine.lint_units ~config:no_manifests
       ~sources:
         [ "bin/tool.ml"; "lib/foo/a.ml"; "lib/foo/a.mli"; "lib/foo/b.ml" ]
       units)

(* -- negative / scoping / allowlists ------------------------------------- *)

let test_clean_fixture () =
  check_shapes "disciplined code is finding-free" []
    (lint_as ~path:"lib/obs/clean.ml" "clean.ml")

let test_scope () =
  (* bench/ is sim code too: harness timing must route through Perf.Clock,
     so raw wall-clock reads are findings there as well. *)
  let path = "bench/bad_determinism.ml" in
  check_shapes "determinism rule active in bench/"
    (at path "determinism" [ 2; 3; 4; 5; 6 ])
    (lint_as ~path "bad_determinism.ml");
  (* ...but test/ is not sim code. *)
  check_shapes "determinism rule inactive in test/" []
    (lint_as ~path:"test/fake/bad_determinism.ml" "bad_determinism.ml");
  (* Hash iteration is only a finding in output-feeding modules. *)
  check_shapes "stable-iteration inactive outside output-feeding modules" []
    (lint_as ~path:"lib/core/bad_stable_iteration.ml"
       "bad_stable_iteration.ml");
  List.iter
    (fun path ->
      check_shapes
        ("stable-iteration active in " ^ path)
        (at path "stable-iteration" [ 2; 3 ])
        (lint_as ~path "bad_stable_iteration.ml"))
    [
      "lib/vopr/bad_stable_iteration.ml";
      "lib/recorder/bad_stable_iteration.ml";
      "lib/harness/report.ml";
    ]

let test_allowlist () =
  (* lib/obs/stable.ml is the audited helper: folding there is the point. *)
  check_shapes "stable.ml may fold hash tables" []
    (lint_as ~path:"lib/obs/stable.ml" "bad_stable_iteration.ml");
  (* lib/wal/lsn.ml owns LSN arithmetic. *)
  check_shapes "lsn.ml may do LSN arithmetic" []
    (lint_as ~path:"lib/wal/lsn.ml" "bad_lsn_arith.ml");
  (* lib/perf/clock.ml is the single wall-clock gateway. *)
  check_shapes "clock.ml may read real time" []
    (lint_as ~path:"lib/perf/clock.ml" "bad_determinism.ml")

(* A source with no .cmt — here one that cannot even parse — must fail the
   gate rather than slip past every rule. *)
let test_parse_error () =
  let dir = Filename.temp_dir "aurora_lint" "" in
  let file = Filename.concat dir "broken.ml" in
  let oc = open_out_bin file in
  output_string oc "let let let";
  close_out oc;
  let fs = lint_roots ~config:no_manifests [ dir ] in
  Sys.remove file;
  Sys.rmdir dir;
  check_shapes "uncompiled source surfaces as a finding"
    [ ("uncompiled", Lint.Typed_loader.logical_path file, 1) ]
    fs

(* -- baseline ------------------------------------------------------------ *)

let test_baseline_roundtrip () =
  let fs = lint_as ~path:"lib/fake/bad_lsn_arith.ml" "bad_lsn_arith.ml" in
  let file = Filename.temp_file "aurora_lint_baseline" ".txt" in
  Lint.Baseline.save file fs;
  let b = Lint.Baseline.load file in
  Sys.remove file;
  Alcotest.(check int) "every finding frozen" (List.length fs)
    (Lint.Baseline.size b);
  Alcotest.(check bool) "saved findings are suppressed" true
    (List.for_all (Lint.Baseline.mem b) fs);
  let other =
    lint_as ~path:"lib/fake/bad_determinism.ml" "bad_determinism.ml"
  in
  Alcotest.(check bool) "unrelated findings are not" false
    (List.exists (Lint.Baseline.mem b) other)

let test_baseline_missing () =
  Alcotest.(check int) "missing baseline file is empty" 0
    (Lint.Baseline.size (Lint.Baseline.load "no/such/baseline.txt"))

(* -- the real tree ------------------------------------------------------- *)

let test_real_tree () =
  let roots = [ "../../lib"; "../../bin"; "../../bench"; "../../test" ] in
  List.iter
    (fun r ->
      if not (Sys.file_exists r) then
        Alcotest.failf "real tree not visible from the test directory: %s" r)
    roots;
  let findings = lint_roots roots in
  let baseline = Lint.Baseline.load "../../lint/baseline.txt" in
  let fresh =
    List.filter (fun f -> not (Lint.Baseline.mem baseline f)) findings
  in
  Alcotest.(check (list string))
    "no non-baselined findings in the real tree" []
    (List.map Lint.Finding.to_string fresh)

(* -- reporting ----------------------------------------------------------- *)

let test_rendering () =
  let f =
    Lint.Finding.make ~rule:"determinism" ~file:"lib/a.ml" ~line:3 ~col:7
      "message with \"quotes\""
  in
  Alcotest.(check string)
    "compiler-style text" "lib/a.ml:3:7: [determinism] message with \"quotes\""
    (Lint.Finding.to_string f);
  Alcotest.(check string)
    "baseline key excludes the message" "determinism|lib/a.ml|3|7"
    (Lint.Finding.key f);
  Alcotest.(check string)
    "json escapes quotes"
    "{\"rule\":\"determinism\",\"file\":\"lib/a.ml\",\"line\":3,\"col\":7,\"message\":\"message with \\\"quotes\\\"\"}"
    (Lint.Finding.to_json f)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "stable-iteration" `Quick test_stable_iteration;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "lsn-arith" `Quick test_lsn_arith;
          Alcotest.test_case "resolved names" `Quick test_resolved;
          Alcotest.test_case "mli-coverage" `Quick test_mli_coverage;
        ] );
      ( "scoping",
        [
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
          Alcotest.test_case "rule scope" `Quick test_scope;
          Alcotest.test_case "allowlists" `Quick test_allowlist;
          Alcotest.test_case "parse error" `Quick test_parse_error;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "roundtrip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "missing file" `Quick test_baseline_missing;
        ] );
      ( "meta",
        [
          Alcotest.test_case "real tree is clean" `Quick test_real_tree;
          Alcotest.test_case "rendering" `Quick test_rendering;
        ] );
    ]
