open Simcore

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* Naive substring search; fine at test sizes. *)
module Astring_contains = struct
  let find ?(start = 0) haystack needle =
    let hl = String.length haystack and nl = String.length needle in
    let rec scan i =
      if i + nl > hl then None
      else if String.sub haystack i nl = needle then Some i
      else scan (i + 1)
    in
    if nl = 0 then Some start else scan start

  let contains haystack needle = find haystack needle <> None
end

(* ---- json ---- *)

let test_json_escaping () =
  check_str "quotes and control"
    "{\"k\\\"\\n\":\"a\\\\b\\tc\"}"
    (Obs.Json.to_string (Obs.Json.Obj [ ("k\"\n", Obs.Json.String "a\\b\tc") ]));
  check_str "unicode passthrough" "\"a\xe2\x86\x92b\""
    (Obs.Json.to_string (Obs.Json.String "a\xe2\x86\x92b"))

let test_json_floats () =
  check_str "integral float gets .0" "1.0"
    (Obs.Json.to_string (Obs.Json.Float 1.));
  check_str "nan is null" "null" (Obs.Json.to_string (Obs.Json.Float Float.nan));
  check_str "inf is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity));
  check_str "fraction stable" "0.25"
    (Obs.Json.to_string (Obs.Json.Float 0.25))

(* ---- registry ---- *)

let test_registry_identity () =
  let r = Obs.Registry.create () in
  let c1 = Obs.Registry.counter r "hits" in
  let c2 = Obs.Registry.counter r "hits" in
  incr c1;
  check_int "owned counter: same ref returned" 1 !c2;
  (* Distinct label sets are distinct instruments, in any key order. *)
  let la = Obs.Registry.counter r ~labels:[ ("pg", "0"); ("az", "az1") ] "hits" in
  let lb = Obs.Registry.counter r ~labels:[ ("az", "az1"); ("pg", "0") ] "hits" in
  let lc = Obs.Registry.counter r ~labels:[ ("pg", "1"); ("az", "az1") ] "hits" in
  incr la;
  check_int "label order irrelevant" 1 !lb;
  check_int "different labels distinct" 0 !lc;
  check_int "cardinality" 3 (Obs.Registry.cardinality r);
  (* Same identity, different kind: refused. *)
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Obs.Registry: hits{} already registered as a counter")
    (fun () -> ignore (Obs.Registry.gauge r "hits" : float ref))

let test_registry_snapshot_filter () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r ~labels:[ ("pg", "0") ] "x" in
  incr c;
  ignore (Obs.Registry.counter r ~labels:[ ("pg", "1") ] "x" : int ref);
  ignore (Obs.Registry.counter r "global" : int ref);
  let rendered where = Obs.Json.to_string (Obs.Registry.snapshot ~where r) in
  let with_pg0 = rendered [ ("pg", "0") ] in
  Alcotest.(check bool) "keeps pg=0" true
    (String.length with_pg0 > 0
    && Astring_contains.contains with_pg0 "\"pg\":\"0\"");
  Alcotest.(check bool) "drops pg=1" false
    (Astring_contains.contains with_pg0 "\"pg\":\"1\"");
  Alcotest.(check bool) "keeps unlabelled" true
    (Astring_contains.contains with_pg0 "global")

(* ---- trace: the cluster's flight recorder ---- *)

module Rings = Recorder.Rings

(* A short smoke workload against a default cluster; [recorder_depth]
   switches its flight recorder on from the first event. *)
let run_recorded ?recorder_depth ~seed () =
  let cluster =
    Harness.Cluster.create ?recorder_depth
      { Harness.Cluster.default_config with seed }
  in
  let sim = Harness.Cluster.sim cluster in
  let gen =
    Workload.Txn_gen.create ~sim ~rng:(Rng.create (seed + 1))
      ~db:(Harness.Cluster.db cluster)
      ~profile:Workload.Txn_gen.default_profile ()
  in
  Workload.Txn_gen.run_open_loop gen ~rate_per_sec:2000.
    ~duration:(Time_ns.ms 100);
  Sim.run_until sim (Time_ns.ms 300);
  cluster

let rings_of cluster = (Rings.snapshot (Harness.Cluster.recorder cluster)).nodes

(* Every node's ring holds at most [depth] events, the newest ones, in
   time order, and the writer's ring wrapped under this load. *)
let test_trace_ring () =
  let depth = Rings.min_depth in
  let cluster = run_recorded ~recorder_depth:depth ~seed:3 () in
  let rings = rings_of cluster in
  check_int "one ring per node (writer + 12 storage)" 13 (List.length rings);
  List.iter
    (fun (r : Rings.node_ring) ->
      check_int "depth reported" depth r.depth;
      check_bool "capped at depth" true (List.length r.events <= depth);
      let ats = List.map fst r.events in
      check_bool "oldest first" true (List.sort Int.compare ats = ats))
    rings;
  let writer =
    List.find (fun (r : Rings.node_ring) -> r.role = Recorder.Event.Writer) rings
  in
  check_int "writer ring full" depth (List.length writer.events);
  check_bool "writer ring wrapped" true (writer.evicted > 0);
  (* The survivors are the newest: the last one is at the end of the run. *)
  check_bool "newest retained" true
    (fst (List.nth writer.events (depth - 1)) > Time_ns.ms 100)

(* Evictions are counted exactly: against an identically seeded run whose
   rings never wrap, each small ring evicted precisely the overflow. *)
let test_trace_dropped () =
  let small = rings_of (run_recorded ~recorder_depth:Rings.min_depth ~seed:4 ()) in
  let big = rings_of (run_recorded ~recorder_depth:Rings.max_depth ~seed:4 ()) in
  check_int "same nodes" (List.length big) (List.length small);
  List.iter2
    (fun (s : Rings.node_ring) (b : Rings.node_ring) ->
      check_int "no eviction at max depth" 0 b.evicted;
      check_int
        (Printf.sprintf "n%d evicted = overflow" s.node)
        (max 0 (List.length b.events - Rings.min_depth))
        s.evicted)
    small big;
  check_int "recorder off: nothing kept" 0
    (List.length (rings_of (run_recorded ~seed:4 ())))

(* A recorder that is off pays no allocation per note and keeps nothing. *)
let test_trace_disabled_zero_alloc () =
  let cluster = run_recorded ~seed:5 () in
  let r = Harness.Cluster.recorder cluster in
  let ev = Recorder.Event.Vcl_advance { vcl = 1 } in
  Rings.note r ~node:0 ~at:0 ev;
  let before = Gc.minor_words () in
  for i = 1 to 1000 do
    if Rings.enabled r then Alcotest.fail "recorder switched itself on";
    Rings.note r ~node:(i land 7) ~at:i ev
  done;
  let allocated = Gc.minor_words () -. before in
  check_int "off recorder stays empty" 0 (List.length (Rings.snapshot r).nodes);
  Alcotest.(check bool)
    (Printf.sprintf "allocation-free while off (%.0f words)" allocated)
    true (allocated < 256.)

(* ---- commit path ---- *)

let test_commit_path_pairs () =
  let reg = Obs.Registry.create () in
  let cp = Obs.Commit_path.create ~registry:reg () in
  let mark ~at ~lsn st = Obs.Commit_path.mark cp ~at ~lsn st in
  (* One record through the whole pipeline. *)
  mark ~at:0 ~lsn:1 Obs.Commit_path.Lsn_allocated;
  mark ~at:10 ~lsn:1 Obs.Commit_path.Boxcar_flushed;
  mark ~at:10 ~lsn:1 Obs.Commit_path.Net_sent;
  mark ~at:510 ~lsn:1 Obs.Commit_path.Node_acked;
  mark ~at:520 ~lsn:1 Obs.Commit_path.Node_acked (* idempotent: later ack ignored *);
  mark ~at:600 ~lsn:1 Obs.Commit_path.Pgcl_advanced;
  mark ~at:600 ~lsn:1 Obs.Commit_path.Vcl_advanced;
  mark ~at:700 ~lsn:1 Obs.Commit_path.Vdl_advanced;
  mark ~at:650 ~lsn:1 Obs.Commit_path.Commit_acked;
  let hist stage_a stage_b =
    let label = Obs.Commit_path.stage_label stage_a stage_b in
    match
      List.find_opt
        (fun (labels, _) -> List.mem ("stage", label) labels)
        (Obs.Registry.find_histograms reg "commit_stage_ns")
    with
    | Some (_, h) -> h
    | None -> Alcotest.failf "no histogram for %s" label
  in
  let h = hist Obs.Commit_path.Boxcar_flushed Obs.Commit_path.Node_acked in
  check_int "marquee boxcar->ack count" 1 (Histogram.count h);
  check_int "marquee boxcar->ack value" 500 (Histogram.max_value h);
  let h = hist Obs.Commit_path.Vcl_advanced Obs.Commit_path.Commit_acked in
  check_int "marquee vcl->commit count" 1 (Histogram.count h);
  check_int "marquee vcl->commit value" 50 (Histogram.max_value h);
  let h = hist Obs.Commit_path.Net_sent Obs.Commit_path.Node_acked in
  check_int "nearest-prev pair value" 500 (Histogram.max_value h);
  check_int "one live timeline" 1 (Obs.Commit_path.live_timelines cp);
  Obs.Commit_path.clear cp;
  check_int "cleared" 0 (Obs.Commit_path.live_timelines cp)

let test_commit_path_eviction () =
  let reg = Obs.Registry.create () in
  let cp = Obs.Commit_path.create ~capacity:8 ~registry:reg () in
  for lsn = 1 to 20 do
    Obs.Commit_path.mark cp ~at:lsn ~lsn Obs.Commit_path.Lsn_allocated
  done;
  check_int "timelines capped" 8 (Obs.Commit_path.live_timelines cp);
  (* A mark on an evicted LSN is dropped, not resurrected. *)
  Obs.Commit_path.mark cp ~at:100 ~lsn:1 Obs.Commit_path.Boxcar_flushed;
  check_int "evicted lsn not resurrected" 8 (Obs.Commit_path.live_timelines cp)

(* ---- whole-cluster determinism ---- *)

let run_cluster seed =
  let cluster =
    Harness.Cluster.create ~recorder_depth:Rings.default_depth
      { Harness.Cluster.default_config with seed }
  in
  let sim = Harness.Cluster.sim cluster in
  let gen =
    Workload.Txn_gen.create ~sim ~rng:(Rng.create (seed + 1))
      ~db:(Harness.Cluster.db cluster)
      ~profile:Workload.Txn_gen.default_profile ()
  in
  Workload.Txn_gen.run_open_loop gen ~rate_per_sec:2000.
    ~duration:(Time_ns.ms 100);
  Sim.run_until sim (Time_ns.sec 2);
  Obs.Json.to_string (Harness.Cluster.snapshot ~trace_tail:50 cluster)

let test_cluster_snapshot_deterministic () =
  let a = run_cluster 11 in
  let b = run_cluster 11 in
  check_str "same seed, byte-identical snapshots" a b;
  let c = run_cluster 12 in
  Alcotest.(check bool) "different seed differs" false (String.equal a c)

let test_cluster_snapshot_contents () =
  let s = run_cluster 11 in
  let has sub = Astring_contains.contains s sub in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "snapshot has %s" needle) true
        (has needle))
    [
      (* marquee commit-path stage histograms *)
      "boxcar_flushed\xe2\x86\x92node_acked";
      "vcl_advanced\xe2\x86\x92commit_acked";
      (* every pre-existing ad-hoc metric record surfaces *)
      "db_txns_committed";
      "db_commit_latency_ns";
      "net_dropped_random";
      "storage_records_stored";
      "read_latency_ns";
      "pg_pgcl";
    ];
  (* Marquee histograms must have nonzero counts: find the first
     commit_stage_ns entry for the marquee label and check count > 0. *)
  let idx =
    match Astring_contains.find s "boxcar_flushed\xe2\x86\x92node_acked" with
    | Some i -> i
    | None -> Alcotest.fail "marquee label missing"
  in
  let count_idx =
    match Astring_contains.find ~start:idx s "\"count\":" with
    | Some i -> i + String.length "\"count\":"
    | None -> Alcotest.fail "no count after marquee label"
  in
  Alcotest.(check bool) "marquee count nonzero" true
    (s.[count_idx] <> '0')

(* ---- json properties (qcheck) ---- *)

(* Minimal JSON reader, just enough to validate the encoder's output:
   numbers containing '.', 'e' or 'E' read back as [Float], others as
   [Int].  Raises [Bad] on anything malformed, so "it parses" is itself
   the property under test. *)
module Json_parse = struct
  exception Bad of string

  let parse (s : string) : Obs.Json.t =
    let pos = ref 0 in
    let len = String.length s in
    let peek () = if !pos >= len then raise (Bad "eof") else s.[!pos] in
    let advance () = incr pos in
    let expect c =
      if peek () <> c then raise (Bad (Printf.sprintf "expected %c" c));
      advance ()
    in
    let rec skip_ws () =
      if
        !pos < len
        && match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false
      then begin
        advance ();
        skip_ws ()
      end
    in
    let hex c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> raise (Bad "hex digit")
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' ->
          advance ();
          Buffer.contents b
        | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'; advance ()
          | '\\' -> Buffer.add_char b '\\'; advance ()
          | '/' -> Buffer.add_char b '/'; advance ()
          | 'n' -> Buffer.add_char b '\n'; advance ()
          | 'r' -> Buffer.add_char b '\r'; advance ()
          | 't' -> Buffer.add_char b '\t'; advance ()
          | 'b' -> Buffer.add_char b '\b'; advance ()
          | 'f' -> Buffer.add_char b '\012'; advance ()
          | 'u' ->
            advance ();
            let code = ref 0 in
            for _ = 1 to 4 do
              code := (!code * 16) + hex (peek ());
              advance ()
            done;
            if !code > 0xff then raise (Bad "non-latin1 \\u escape")
            else Buffer.add_char b (Char.chr !code)
          | c -> raise (Bad (Printf.sprintf "escape \\%c" c)));
          go ()
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < len && is_num_char s.[!pos] do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
        Obs.Json.Float (float_of_string tok)
      else Obs.Json.Int (int_of_string tok)
    in
    let literal word v =
      let n = String.length word in
      if !pos + n <= len && String.sub s !pos n = word then begin
        pos := !pos + n;
        v
      end
      else raise (Bad word)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '"' -> Obs.Json.String (parse_string ())
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obs.Json.Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | ',' -> advance (); fields_loop ()
            | '}' -> advance ()
            | _ -> raise (Bad "object separator")
          in
          fields_loop ();
          Obs.Json.Obj (List.rev !fields)
        end
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Obs.Json.List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | ',' -> advance (); items_loop ()
            | ']' -> advance ()
            | _ -> raise (Bad "array separator")
          in
          items_loop ();
          Obs.Json.List (List.rev !items)
        end
      | 't' -> literal "true" (Obs.Json.Bool true)
      | 'f' -> literal "false" (Obs.Json.Bool false)
      | 'n' -> literal "null" Obs.Json.Null
      | _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then raise (Bad "trailing garbage");
    v
end

let prop_json_escape_valid =
  QCheck.Test.make ~name:"escape: arbitrary bytes round-trip through parse"
    ~count:500 QCheck.string (fun s ->
      Json_parse.parse ("\"" ^ Obs.Json.escape s ^ "\"") = Obs.Json.String s)

let prop_json_float_roundtrip =
  QCheck.Test.make
    ~name:"float repr: emitted values reparse to the exact same value"
    ~count:1000 QCheck.float
    (fun f0 ->
      QCheck.assume (Float.is_finite f0);
      let repr f = Obs.Json.to_string (Obs.Json.Float f) in
      (* One encode+parse lands on the decimal grid the encoder emits
         (9 significant digits, or exact fixed-point for integral values);
         from there print/parse must be lossless both ways. *)
      let f = float_of_string (repr f0) in
      let s = repr f in
      Float.equal (float_of_string s) f && String.equal (repr (float_of_string s)) s)

let test_json_nonfinite_null () =
  check_str "nan and infinities all encode as null" "[null,null,null]"
    (Obs.Json.to_string
       (Obs.Json.List
          [
            Obs.Json.Float Float.nan;
            Obs.Json.Float Float.infinity;
            Obs.Json.Float Float.neg_infinity;
          ]))

let json_gen : Obs.Json.t QCheck.Gen.t =
  let open QCheck.Gen in
  let finite f = if Float.is_finite f then f else 0. in
  let scalar =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) int;
        map (fun f -> Obs.Json.Float (finite f)) float;
        map (fun s -> Obs.Json.String s) (string_size (int_bound 12));
      ]
  in
  sized
    (fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 1,
                 map
                   (fun l -> Obs.Json.List l)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs -> Obs.Json.Obj kvs)
                   (list_size (int_bound 4)
                      (pair (string_size (int_bound 6)) (self (n / 2)))) );
             ]))

let prop_json_pretty_equiv =
  QCheck.Test.make ~name:"pretty and compact renderings parse identically"
    ~count:300
    (QCheck.make ~print:(fun j -> Obs.Json.to_string ~pretty:true j) json_gen)
    (fun j ->
      Json_parse.parse (Obs.Json.to_string j)
      = Json_parse.parse (Obs.Json.to_string ~pretty:true j))

(* ---- Obs.Json.of_string (the library's own parser) ---- *)

let test_json_of_string_values () =
  let ok s = match Obs.Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "%S should parse: %s" s e
  in
  check_bool "null" true (ok "null" = Obs.Json.Null);
  check_bool "bools" true
    (ok " true " = Obs.Json.Bool true && ok "false" = Obs.Json.Bool false);
  check_bool "int stays Int" true (ok "-42" = Obs.Json.Int (-42));
  check_bool "dotted number becomes Float" true
    (ok "1.0" = Obs.Json.Float 1.0);
  check_bool "exponent becomes Float" true
    (ok "5e3" = Obs.Json.Float 5000.);
  check_bool "escapes decode" true
    (ok {|"a\n\t\"\\b"|} = Obs.Json.String "a\n\t\"\\b");
  check_bool "control-char \\u escape decodes" true
    (ok {|"\u0007"|} = Obs.Json.String "\007");
  check_bool "three-byte \\u escape decodes to UTF-8" true
    (ok {|"\uBEEF"|} = Obs.Json.String "\xeb\xbb\xaf");
  check_bool "surrogate pair decodes to a single scalar" true
    (* U+1F600 via its surrogate halves. *)
    (ok {|"\uD83D\uDE00"|} = Obs.Json.String "\xf0\x9f\x98\x80");
  check_bool "nested structure" true
    (ok {|{"k": [1, {"x": null}], "s": ""}|}
    = Obs.Json.Obj
        [
          ("k", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Obj [ ("x", Obs.Json.Null) ] ]);
          ("s", Obs.Json.String "");
        ])

let test_json_of_string_errors () =
  let bad s = match Obs.Json.of_string s with
    | Ok _ -> Alcotest.failf "%S should not parse" s
    | Error e -> e
  in
  ignore (bad "" : string);
  ignore (bad "tru" : string);
  ignore (bad "[1," : string);
  ignore (bad {|{"a" 1}|} : string);
  ignore (bad {|"\q"|} : string);
  ignore (bad {|"\uZZZZ"|} : string);
  ignore (bad {|"\uD83D"|} : string); (* unpaired high surrogate *)
  ignore (bad {|"\uDE00"|} : string); (* unpaired low surrogate *)
  ignore (bad {|"\uD83Dx"|} : string); (* high surrogate, no \u follow-up *)
  ignore (bad {|"unterminated|} : string);
  (* trailing garbage is an error, and the offset points at it *)
  check_bool "trailing input rejected with offset" true
    (let e = bad "1 x" in
     String.length e > 0
     &&
     match String.index_opt e '2' with
     | Some _ -> true (* "at byte 2" *)
     | None -> false)

let test_json_of_string_depth () =
  let nested n = String.make n '[' ^ "1" ^ String.make n ']' in
  (match Obs.Json.of_string (nested 200) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth 200 should parse: %s" e);
  match Obs.Json.of_string (nested 100_000) with
  | Ok _ -> Alcotest.fail "absurd nesting should be rejected"
  | Error e ->
    check_bool "depth error mentions nesting" true
      (Astring_contains.contains e "nest")

(* print . parse . print = print: re-rendering a parsed document reproduces
   the original bytes, compact and pretty alike.  (parse . print is not the
   identity on floats beyond 9 significant digits — the printer's documented
   precision — but the re-rendered bytes are still stable.) *)
let prop_json_of_string_roundtrip =
  QCheck.Test.make ~name:"of_string round-trips to_string output" ~count:300
    (QCheck.make ~print:(fun j -> Obs.Json.to_string ~pretty:true j) json_gen)
    (fun j ->
      let compact = Obs.Json.to_string j in
      let pretty = Obs.Json.to_string ~pretty:true j in
      match (Obs.Json.of_string compact, Obs.Json.of_string pretty) with
      | Ok a, Ok b ->
        Obs.Json.to_string a = compact
        && Obs.Json.to_string ~pretty:true b = pretty
        && a = b
      | _ -> false)

(* ---- series ---- *)

let test_series_counter_rate () =
  let reg = Obs.Registry.create () in
  let s = Obs.Series.create ~registry:reg () in
  let c = Obs.Registry.counter reg "ticks" in
  Obs.Series.track_counter s "ticks";
  check_int "one channel" 1 (Obs.Series.n_channels s);
  Alcotest.(check (list string)) "default label" [ "ticks/s" ]
    (Obs.Series.channel_labels s);
  c := 100;
  Obs.Series.sample s ~at:(Time_ns.ms 100);
  c := !c + 50;
  Obs.Series.sample s ~at:(Time_ns.ms 200);
  match Obs.Series.points s "ticks/s" with
  | None -> Alcotest.fail "channel missing"
  | Some pts ->
    check_int "two samples" 2 (Array.length pts);
    Alcotest.(check (float 1e-6)) "first window rate (from t=0)" 1000. pts.(0);
    Alcotest.(check (float 1e-6)) "second window rate" 500. pts.(1)

let test_series_decimation () =
  let reg = Obs.Registry.create () in
  let s = Obs.Series.create ~capacity:4 ~registry:reg () in
  let v = ref 0. in
  Obs.Series.track_fn s ~label:"v" (fun () -> !v);
  (* 10 uniform ticks into capacity 4: two decimations, stride 1->2->4.
     Recorded ticks are deterministic: 1,2,3,4 | compact to 1,3,4, +5 |
     compact to 1,4,5, +7 | ticks 8..10 swallowed. *)
  for i = 1 to 10 do
    v := float_of_int i;
    Obs.Series.sample s ~at:(Time_ns.ms (10 * i))
  done;
  check_int "bounded" 4 (Obs.Series.n_samples s);
  check_int "stride doubled twice" 4 (Obs.Series.stride s);
  let ts = Obs.Series.timestamps s in
  Alcotest.(check (array int)) "first and newest recorded samples survive"
    [| Time_ns.ms 10; Time_ns.ms 40; Time_ns.ms 50; Time_ns.ms 70 |]
    ts;
  Array.iteri
    (fun i at ->
      if i > 0 then
        Alcotest.(check bool) "timestamps strictly increase" true
          (at > ts.(i - 1)))
    ts;
  match Obs.Series.points s "v" with
  | None -> Alcotest.fail "channel missing"
  | Some pts ->
    Alcotest.(check (array (float 1e-9))) "points stay paired with times"
      [| 1.; 4.; 5.; 7. |] pts

(* ---- health ---- *)

let test_health_edges_synthetic () =
  let h = Obs.Health.create () in
  let fired = ref [] in
  let observe ~at sample = fired := !fired @ Obs.Health.observe h ~at sample in
  let mk ~at ~wm ~az1 =
    {
      Obs.Health.at;
      pgs =
        [
          {
            Obs.Health.pg = 0;
            total = 6;
            reachable = (if wm >= 0 then 4 + wm else 3);
            ack_current = 4;
            write_margin = wm;
            read_margin = wm + 1;
            az_plus_one = az1;
            epoch = 1;
          };
        ];
      volume =
        { Obs.Health.vdl_vcl_gap = 0; commit_queue_depth = 0; max_replica_lag = 0 };
    }
  in
  observe ~at:0 (mk ~at:0 ~wm:2 ~az1:true);
  check_int "healthy start: no transitions" 0 (Obs.Health.transitions h);
  observe ~at:(Time_ns.ms 100)
    (mk ~at:(Time_ns.ms 100) ~wm:(-1) ~az1:false);
  check_int "quorum + AZ+1 loss fire one edge each" 2 (Obs.Health.transitions h);
  observe ~at:(Time_ns.ms 150)
    (mk ~at:(Time_ns.ms 150) ~wm:(-1) ~az1:false);
  check_int "steady unhealthy state: no re-fire" 2 (Obs.Health.transitions h);
  observe ~at:(Time_ns.ms 200)
    (mk ~at:(Time_ns.ms 200) ~wm:0 ~az1:true);
  check_int "recovery fires one edge each" 4 (Obs.Health.transitions h);
  (* [0,100) available from the t=0 sample, [100,200) not: exactly half. *)
  Alcotest.(check (float 1e-9)) "availability integrates previous state" 0.5
    (Obs.Health.write_available_fraction h);
  check_int "observed span" (Time_ns.ms 200) (Obs.Health.observed_ns h);
  Alcotest.(check (list string))
    "observe returns each edge once, in order, on pg 0"
    [
      "0 write_quorum_lost";
      "0 az_plus_one_lost";
      "0 write_quorum_regained";
      "0 az_plus_one_regained";
    ]
    (List.map
       (fun (pg, e) -> Printf.sprintf "%d %s" pg (Obs.Health.edge_name e))
       !fired)

let test_cluster_health_edges () =
  let cluster =
    Harness.Cluster.create ~recorder_depth:Rings.max_depth
      { Harness.Cluster.default_config with seed = 5; n_pgs = 1 }
  in
  let obs = Harness.Cluster.obs cluster in
  let sim = Harness.Cluster.sim cluster in
  (* Health edges land on the writer's recorder ring. *)
  let health_counts () =
    List.fold_left
      (fun (wl, wr, al, ar) (e : Recorder.Correlate.entry) ->
        match e.event with
        | Recorder.Event.Health_edge { edge; _ } -> (
          check_bool "on the writer's ring" true
            (e.role = Recorder.Event.Writer);
          match edge with
          | Obs.Health.Write_quorum_lost -> (wl + 1, wr, al, ar)
          | Obs.Health.Write_quorum_regained -> (wl, wr + 1, al, ar)
          | Obs.Health.Az_plus_one_lost -> (wl, wr, al + 1, ar)
          | Obs.Health.Az_plus_one_regained -> (wl, wr, al, ar + 1))
        | _ -> (wl, wr, al, ar))
      (0, 0, 0, 0)
      (Recorder.Correlate.entries
         (Rings.snapshot (Harness.Cluster.recorder cluster)))
  in
  let check_counts label (wl, wr, al, ar) =
    let gwl, gwr, gal, gar = health_counts () in
    Alcotest.(check (list int)) label [ wl; wr; al; ar ] [ gwl; gwr; gal; gar ]
  in
  Sim.run_until sim (Time_ns.ms 200);
  check_counts "baseline healthy" (0, 0, 0, 0);
  (* One whole AZ down: 4/6 write quorum exactly satisfied (margin 0) but
     AZ+1 is gone — only the AZ+1 edge fires. *)
  Harness.Cluster.fail_az cluster (Quorum.Az.of_int 2);
  Sim.run_until sim (Time_ns.ms 400);
  check_counts "AZ outage: AZ+1 lost, writes still up" (0, 0, 1, 0);
  let pg = Storage.Pg_id.of_int 0 in
  let victim =
    List.find
      (fun m -> Quorum.Az.to_int m.Quorum.Membership.az <> 2)
      (Harness.Cluster.members_of_pg cluster pg)
  in
  Harness.Cluster.crash_storage_node cluster pg victim.Quorum.Membership.id;
  Sim.run_until sim (Time_ns.ms 600);
  check_counts "AZ + one more: write quorum lost exactly once" (1, 0, 1, 0);
  Harness.Cluster.restart_storage_node cluster pg victim.Quorum.Membership.id;
  Sim.run_until sim (Time_ns.ms 800);
  check_counts "node restart: write quorum regained once" (1, 1, 1, 0);
  Harness.Cluster.restore_az cluster (Quorum.Az.of_int 2);
  Sim.run_until sim (Time_ns.ms 1000);
  check_counts "AZ restored: AZ+1 regained once" (1, 1, 1, 1);
  (* The availability accumulator saw the outage window. *)
  let frac =
    Obs.Health.write_available_fraction (Obs.Ctx.health obs)
  in
  Alcotest.(check bool) "availability dipped below 1" true (frac < 1.);
  Alcotest.(check bool) "but mostly up" true (frac > 0.5)

(* ---- commit-path timelines / pg latch ---- *)

let test_commit_path_timelines () =
  let reg = Obs.Registry.create () in
  let cp = Obs.Commit_path.create ~registry:reg () in
  Obs.Commit_path.mark cp ~at:100 ~lsn:7 ~pg:1 Obs.Commit_path.Lsn_allocated;
  Obs.Commit_path.mark cp ~at:500 ~lsn:7 Obs.Commit_path.Boxcar_flushed;
  Obs.Commit_path.mark cp ~at:900 ~lsn:9 Obs.Commit_path.Lsn_allocated;
  Obs.Commit_path.mark cp ~at:1200 ~lsn:9 ~pg:0 Obs.Commit_path.Node_acked;
  match Obs.Commit_path.timelines cp with
  | [ (7, pg7, tl7); (9, pg9, tl9) ] ->
    check_int "pg latched at allocation" 1 pg7;
    check_int "pg latched by a later stage" 0 pg9;
    check_int "stage time recorded" 500
      tl7.(Obs.Commit_path.stage_index Obs.Commit_path.Boxcar_flushed);
    check_int "unobserved stage is -1" (-1)
      tl7.(Obs.Commit_path.stage_index Obs.Commit_path.Commit_acked);
    check_int "late-latched timeline keeps times" 1200
      tl9.(Obs.Commit_path.stage_index Obs.Commit_path.Node_acked)
  | tls -> Alcotest.failf "expected 2 timelines, got %d" (List.length tls)

(* ---- chrome export ---- *)

let test_chrome_export_format () =
  let ctx = Obs.Ctx.create () in
  let rings = Rings.create () in
  Rings.enable rings ~depth:Rings.min_depth;
  Rings.register rings ~node:0 ~role:Recorder.Event.Writer;
  let cp = Obs.Ctx.commit_path ctx in
  Obs.Commit_path.mark cp ~at:1_000 ~lsn:1 ~pg:0 Obs.Commit_path.Lsn_allocated;
  Obs.Commit_path.mark cp ~at:2_000 ~lsn:1 Obs.Commit_path.Boxcar_flushed;
  Obs.Commit_path.mark cp ~at:3_000 ~lsn:1 Obs.Commit_path.Node_acked;
  Obs.Commit_path.mark cp ~at:4_000 ~lsn:1 Obs.Commit_path.Commit_acked;
  (* Network traffic is not an instant; a membership phase is. *)
  Rings.note rings ~node:0 ~at:2_400
    (Recorder.Event.Send
       { kind = Recorder.Event.Write_batch; peer = 1; pg = 0; lsn_lo = 1; lsn_hi = 1 });
  Rings.note rings ~node:0 ~at:2_500
    (Recorder.Event.Membership_change
       { pg = 0; epoch = 2; phase = Recorder.Event.Change_begun });
  let evs =
    match Recorder.Chrome_export.to_json ctx rings with
    | Obs.Json.Obj fields -> (
      (match List.assoc_opt "displayTimeUnit" fields with
      | Some (Obs.Json.String "ms") -> ()
      | _ -> Alcotest.fail "displayTimeUnit missing");
      match List.assoc_opt "traceEvents" fields with
      | Some (Obs.Json.List evs) -> evs
      | _ -> Alcotest.fail "traceEvents missing")
    | _ -> Alcotest.fail "not an object"
  in
  let field k ev =
    match ev with Obs.Json.Obj fs -> List.assoc_opt k fs | _ -> None
  in
  List.iter
    (fun ev ->
      List.iter
        (fun k ->
          if field k ev = None then
            Alcotest.failf "record missing %s: %s" k (Obs.Json.to_string ev))
        [ "name"; "ph"; "ts"; "pid"; "tid" ])
    evs;
  let with_ph v =
    List.filter (fun ev -> field "ph" ev = Some (Obs.Json.String v)) evs
  in
  let begins = with_ph "b" and ends = with_ph "e" in
  check_int "async spans balance" (List.length begins) (List.length ends);
  Alcotest.(check bool) "at least one span pair for the traced commit" true
    (List.length begins >= 1);
  Alcotest.(check bool) "umbrella span present" true
    (List.exists
       (fun ev -> field "name" ev = Some (Obs.Json.String "commit lsn=1"))
       begins);
  (match with_ph "i" with
  | [ ev ] ->
    Alcotest.(check (option string)) "ring membership event became the instant"
      (Some "membership begun")
      (match field "name" ev with Some (Obs.Json.String n) -> Some n | _ -> None);
    check_bool "on pg 0's lane" true (field "tid" ev = Some (Obs.Json.Int 1))
  | evs -> Alcotest.failf "expected one instant, got %d" (List.length evs));
  Alcotest.(check bool) "lane metadata present" true
    (List.length (with_ph "M") >= 1)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "floats" `Quick test_json_floats;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite_null;
          QCheck_alcotest.to_alcotest prop_json_escape_valid;
          QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_pretty_equiv;
          Alcotest.test_case "of_string values" `Quick
            test_json_of_string_values;
          Alcotest.test_case "of_string errors" `Quick
            test_json_of_string_errors;
          Alcotest.test_case "of_string depth cap" `Quick
            test_json_of_string_depth;
          QCheck_alcotest.to_alcotest prop_json_of_string_roundtrip;
        ] );
      ( "series",
        [
          Alcotest.test_case "counter rate" `Quick test_series_counter_rate;
          Alcotest.test_case "decimation" `Quick test_series_decimation;
        ] );
      ( "health",
        [
          Alcotest.test_case "synthetic edges" `Quick test_health_edges_synthetic;
          Alcotest.test_case "scripted AZ failure" `Quick
            test_cluster_health_edges;
        ] );
      ( "chrome export",
        [
          Alcotest.test_case "record format" `Quick test_chrome_export_format;
        ] );
      ( "registry",
        [
          Alcotest.test_case "identity" `Quick test_registry_identity;
          Alcotest.test_case "snapshot filter" `Quick
            test_registry_snapshot_filter;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring eviction" `Quick test_trace_ring;
          Alcotest.test_case "dropped counter" `Quick test_trace_dropped;
          Alcotest.test_case "disabled zero-alloc" `Quick
            test_trace_disabled_zero_alloc;
        ] );
      ( "commit path",
        [
          Alcotest.test_case "stage pairs" `Quick test_commit_path_pairs;
          Alcotest.test_case "timeline eviction" `Quick
            test_commit_path_eviction;
          Alcotest.test_case "timelines / pg latch" `Quick
            test_commit_path_timelines;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "snapshot determinism" `Quick
            test_cluster_snapshot_deterministic;
          Alcotest.test_case "snapshot contents" `Quick
            test_cluster_snapshot_contents;
        ] );
    ]
