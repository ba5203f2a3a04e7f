(* Tests for LSNs, log records, hot logs (SCL tracking), and chains. *)
open Wal

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let lsn = Lsn.of_int

(* Build a linear segment chain of records lsn 1..n (block round-robin). *)
let make_chain ?(first_prev = Lsn.none) n =
  let rec go i prev acc =
    if i > n then List.rev acc
    else begin
      let l = Lsn.add first_prev i in
      let r =
        Log_record.make ~lsn:l ~prev_volume:prev ~prev_segment:prev
          ~prev_block:Lsn.none
          ~block:(Block_id.of_int (i mod 4))
          ~txn:(Txn_id.of_int 1) ~mtr_id:i ~mtr_end:true
          ~op:(Log_record.Put { key = Printf.sprintf "k%d" i; value = "v" })
      in
      go (i + 1) l (r :: acc)
    end
  in
  go 1 first_prev []

(* ---- Lsn ---- *)

let test_lsn_allocator () =
  let a = Lsn.Allocator.create () in
  check_int "first" 1 (Lsn.to_int (Lsn.Allocator.take a));
  check_int "second" 2 (Lsn.to_int (Lsn.Allocator.take a));
  let first, last = Lsn.Allocator.take_batch a 5 in
  check_int "batch first" 3 (Lsn.to_int first);
  check_int "batch last" 7 (Lsn.to_int last);
  check_int "last tracked" 7 (Lsn.to_int (Lsn.Allocator.last a))

let test_lsn_allocator_reset () =
  let a = Lsn.Allocator.create () in
  ignore (Lsn.Allocator.take a : Lsn.t);
  Lsn.Allocator.reset_above a (lsn 100);
  check_int "resumes above" 101 (Lsn.to_int (Lsn.Allocator.take a));
  Alcotest.check_raises "cannot move backwards"
    (Invalid_argument "Lsn.Allocator.reset_above: would move backwards")
    (fun () -> Lsn.Allocator.reset_above a (lsn 5))

let test_lsn_compare () =
  check_bool "none below first" true Lsn.(none < first);
  check_bool "ordering" true Lsn.(lsn 3 < lsn 5);
  check_int "max" 5 (Lsn.to_int (Lsn.max (lsn 3) (lsn 5)))

(* ---- Log_record ---- *)

let test_record_size () =
  let r =
    Log_record.make ~lsn:(lsn 1) ~prev_volume:Lsn.none ~prev_segment:Lsn.none
      ~prev_block:Lsn.none ~block:(Block_id.of_int 0) ~txn:(Txn_id.of_int 1)
      ~mtr_id:1 ~mtr_end:true
      ~op:(Log_record.Put { key = "abc"; value = "defg" })
  in
  check_int "header + payload" (Log_record.header_bytes + 7) r.size_bytes;
  check_bool "not commit" false (Log_record.is_commit r)

(* ---- Hot_log ---- *)

let test_hot_log_in_order () =
  let log = Hot_log.create () in
  let records = make_chain 10 in
  List.iter (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result)) records;
  check_int "scl" 10 (Lsn.to_int (Hot_log.scl log));
  check_int "highest" 10 (Lsn.to_int (Hot_log.highest_received log));
  check_int "pending" 0 (Hot_log.pending_count log)

let test_hot_log_gap_then_fill () =
  let log = Hot_log.create () in
  let records = make_chain 5 in
  (* Deliver 1,2 then 4,5 (hole at 3), then 3. *)
  let r i = List.nth records (i - 1) in
  List.iter
    (fun i -> ignore (Hot_log.insert log (r i) : Hot_log.insert_result))
    [ 1; 2; 4; 5 ];
  check_int "scl stuck at hole" 2 (Lsn.to_int (Hot_log.scl log));
  check_int "highest sees past hole" 5 (Lsn.to_int (Hot_log.highest_received log));
  check_int "pending" 2 (Hot_log.pending_count log);
  ignore (Hot_log.insert log (r 3) : Hot_log.insert_result);
  check_int "scl cascades" 5 (Lsn.to_int (Hot_log.scl log))

let test_hot_log_duplicate () =
  let log = Hot_log.create () in
  let records = make_chain 3 in
  List.iter (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result)) records;
  (match Hot_log.insert log (List.hd records) with
  | Hot_log.Duplicate -> ()
  | _ -> Alcotest.fail "expected Duplicate");
  check_int "count unchanged" 3 (Hot_log.record_count log)

let test_hot_log_chained_above () =
  let log = Hot_log.create () in
  List.iter
    (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result))
    (make_chain 10);
  let above = Hot_log.chained_records_above log (lsn 7) in
  Alcotest.(check (list int)) "suffix of chain" [ 8; 9; 10 ]
    (List.map (fun (r : Log_record.t) -> Lsn.to_int r.lsn) above);
  check_int "full chain" 10 (List.length (Hot_log.chain_to_list log))

let test_hot_log_annul () =
  let log = Hot_log.create () in
  List.iter
    (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result))
    (make_chain 10);
  let dropped = Hot_log.annul_range log ~above:(lsn 6) ~upto:(lsn 100) in
  check_int "dropped" 4 dropped;
  check_int "scl clamped to real record" 6 (Lsn.to_int (Hot_log.scl log));
  check_bool "annulled lsns rejected" true (Hot_log.is_annulled log (lsn 8));
  (match Hot_log.insert log (List.nth (make_chain 10) 7) with
  | Hot_log.Annulled -> ()
  | _ -> Alcotest.fail "expected Annulled");
  (* A fresh record above the range chains from the cut point. *)
  let r =
    Log_record.make ~lsn:(lsn 101) ~prev_volume:(lsn 6) ~prev_segment:(lsn 6)
      ~prev_block:Lsn.none ~block:(Block_id.of_int 0) ~txn:(Txn_id.of_int 2)
      ~mtr_id:11 ~mtr_end:true ~op:Log_record.Noop
  in
  (match Hot_log.insert log r with
  | Hot_log.Accepted ->
    check_int "chain continues above range" 101 (Lsn.to_int (Hot_log.scl log))
  | _ -> Alcotest.fail "expected Accepted")

let test_hot_log_annul_with_pending () =
  let log = Hot_log.create () in
  let records = make_chain 10 in
  let r i = List.nth records (i - 1) in
  (* Chain to 4; 6..8 pending (5 missing). *)
  List.iter
    (fun i -> ignore (Hot_log.insert log (r i) : Hot_log.insert_result))
    [ 1; 2; 3; 4; 6; 7; 8 ];
  check_int "scl" 4 (Lsn.to_int (Hot_log.scl log));
  ignore (Hot_log.annul_range log ~above:(lsn 7) ~upto:(lsn 20) : int);
  (* 8 annulled; 6,7 still pending below the cut. *)
  check_int "scl unchanged" 4 (Lsn.to_int (Hot_log.scl log));
  ignore (Hot_log.insert log (r 5) : Hot_log.insert_result);
  check_int "fills to cut" 7 (Lsn.to_int (Hot_log.scl log))

let test_hot_log_drop_below () =
  let log = Hot_log.create () in
  List.iter
    (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result))
    (make_chain 10);
  let dropped = Hot_log.drop_below log ~upto:(lsn 6) in
  check_int "dropped" 6 dropped;
  check_int "scl unaffected" 10 (Lsn.to_int (Hot_log.scl log));
  check_int "floor recorded" 6 (Lsn.to_int (Hot_log.dropped_upto log));
  (* Gossip export now only reaches back to the floor. *)
  check_int "retained suffix" 4
    (List.length (Hot_log.chained_records_above log Lsn.none))

let test_hot_log_anchored () =
  let log = Hot_log.create_anchored (lsn 100) in
  check_int "anchored scl" 100 (Lsn.to_int (Hot_log.scl log));
  let records = make_chain ~first_prev:(lsn 100) 3 in
  List.iter (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result)) records;
  check_int "extends from anchor" 103 (Lsn.to_int (Hot_log.scl log))

let prop_scl_order_independent =
  QCheck.Test.make ~name:"SCL independent of delivery order; matches reference"
    ~count:200
    QCheck.(pair (int_range 1 40) (int_range 0 1000))
    (fun (n, seed) ->
      let records = make_chain n in
      let arr = Array.of_list records in
      let rng = Simcore.Rng.create seed in
      Simcore.Rng.shuffle rng arr;
      (* Deliver a random prefix of the shuffle. *)
      let k = 1 + Simcore.Rng.int rng n in
      let delivered = Array.to_list (Array.sub arr 0 k) in
      let log = Hot_log.create () in
      List.iter
        (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result))
        delivered;
      let expected = Log_chain.scl_reference ~anchor:Lsn.none delivered in
      Lsn.equal (Hot_log.scl log) expected)

let prop_annul_then_scl_valid =
  QCheck.Test.make ~name:"after annul, SCL is a real chained record <= cut"
    ~count:200
    QCheck.(pair (int_range 2 30) (int_range 1 29))
    (fun (n, cut) ->
      QCheck.assume (cut < n);
      let log = Hot_log.create () in
      List.iter
        (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result))
        (make_chain n);
      ignore (Hot_log.annul_range log ~above:(lsn cut) ~upto:(lsn (n + 100)) : int);
      Lsn.to_int (Hot_log.scl log) = cut)

(* [drop_below] pops an LSN-ordered heap with lazy deletion; this checks
   it against the fold over every stored record it replaced.  Inserts come
   out of order, duplicated, and into annulled ranges, with annuls and GC
   drops interleaved. *)
type gc_op = Ins of int | Annul of int * int | Drop of int

let prop_drop_below_matches_fold =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun l -> Ins l) (int_range 1 40));
          (1, map2 (fun a w -> Annul (a, a + w)) (int_range 0 40) (int_range 0 6));
          (2, map (fun u -> Drop u) (int_range 0 45));
        ])
  in
  let print = function
    | Ins l -> Printf.sprintf "ins %d" l
    | Annul (a, u) -> Printf.sprintf "annul (%d,%d]" a u
    | Drop u -> Printf.sprintf "drop<=%d" u
  in
  QCheck.Test.make ~name:"drop_below matches a fold over stored records"
    ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map print ops))
        Gen.(list_size (int_range 1 80) op_gen))
    (fun ops ->
      let log = Hot_log.create () in
      (* Reference: the stored records, the annulled ranges, the floor. *)
      let stored : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let cuts = ref [] and floor = ref 0 in
      let record l =
        (* Gapped prev links ([l - 2]) leave some records pending. *)
        Log_record.make ~lsn:(lsn l) ~prev_volume:(lsn (l - 1))
          ~prev_segment:(lsn (max 0 (l - 1 - (l mod 2))))
          ~prev_block:Lsn.none ~block:(Block_id.of_int (l mod 3))
          ~txn:(Txn_id.of_int 1) ~mtr_id:l ~mtr_end:true
          ~op:(Log_record.Put { key = "k"; value = String.make (l mod 5) 'v' })
      in
      List.iter
        (fun op ->
          (match op with
          | Ins l ->
            let r = record l in
            let expect =
              if Hashtbl.mem stored l then Hot_log.Duplicate
              else if List.exists (fun (a, u) -> l > a && l <= u) !cuts then
                Hot_log.Annulled
              else Hot_log.Accepted
            in
            if Hot_log.insert log r <> expect then
              QCheck.Test.fail_reportf "insert %d: unexpected result" l;
            if expect = Hot_log.Accepted then
              Hashtbl.replace stored l r.Log_record.size_bytes
          | Annul (a, u) ->
            cuts := (a, u) :: !cuts;
            ignore (Hot_log.annul_range log ~above:(lsn a) ~upto:(lsn u) : int);
            Hashtbl.filter_map_inplace
              (fun l b -> if l > a && l <= u then None else Some b)
              stored
          | Drop u ->
            let doomed =
              Hashtbl.fold (fun l _ acc -> if l <= u then l :: acc else acc) stored []
            in
            List.iter
              (fun l ->
                Hashtbl.remove stored l;
                floor := max !floor l)
              doomed;
            let got = Hot_log.drop_below log ~upto:(lsn u) in
            if got <> List.length doomed then
              QCheck.Test.fail_reportf "drop<=%d: dropped %d, fold %d" u got
                (List.length doomed));
          let bytes = Hashtbl.fold (fun _ b acc -> acc + b) stored 0 in
          if
            Hot_log.record_count log <> Hashtbl.length stored
            || Hot_log.bytes_stored log <> bytes
            || Lsn.to_int (Hot_log.dropped_upto log) <> !floor
          then
            QCheck.Test.fail_reportf
              "after %s: records %d/%d bytes %d/%d floor %d/%d (log/fold)"
              (print op) (Hot_log.record_count log) (Hashtbl.length stored)
              (Hot_log.bytes_stored log) bytes
              (Lsn.to_int (Hot_log.dropped_upto log))
              !floor)
        ops;
      true)

(* ---- Log_chain validators ---- *)

let test_chain_validators () =
  let records = make_chain 8 in
  (match Log_chain.validate_segment_chain records with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Log_chain.validate_volume_chain records with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Break the chain. *)
  let broken = List.filter (fun (r : Log_record.t) -> Lsn.to_int r.lsn <> 4) records in
  (match Log_chain.validate_segment_chain broken with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected broken chain")

let test_block_versions () =
  let records = make_chain 8 in
  (* make_chain uses prev_block = none for all, so single-version chains
     only validate per block when there's one record per block; use a
     custom chain instead. *)
  let r1 =
    Log_record.make ~lsn:(lsn 1) ~prev_volume:Lsn.none ~prev_segment:Lsn.none
      ~prev_block:Lsn.none ~block:(Block_id.of_int 9) ~txn:(Txn_id.of_int 1)
      ~mtr_id:1 ~mtr_end:true ~op:(Log_record.Put { key = "a"; value = "1" })
  in
  let r2 =
    Log_record.make ~lsn:(lsn 5) ~prev_volume:(lsn 4) ~prev_segment:(lsn 4)
      ~prev_block:(lsn 1) ~block:(Block_id.of_int 9) ~txn:(Txn_id.of_int 1)
      ~mtr_id:2 ~mtr_end:true ~op:(Log_record.Put { key = "a"; value = "2" })
  in
  let versions = Log_chain.block_versions (r2 :: r1 :: records) (Block_id.of_int 9) in
  Alcotest.(check (list int)) "block chain order" [ 1; 5 ]
    (List.map (fun (r : Log_record.t) -> Lsn.to_int r.lsn) versions)

(* ---- Truncation ---- *)

(* The truncation range a recovering writer registers with each segment
   (Figure 4): [(above, upto]] is annulled, both neighbours stay valid, and
   allocation resumes just above [upto]. *)
let test_truncation () =
  let log = Hot_log.create () in
  ignore (Hot_log.annul_range log ~above:(lsn 10) ~upto:(lsn 20) : int);
  check_bool "below untouched" false (Hot_log.is_annulled log (lsn 10));
  check_bool "in range" true (Hot_log.is_annulled log (lsn 15));
  check_bool "upper inclusive" true (Hot_log.is_annulled log (lsn 20));
  check_bool "above range" false (Hot_log.is_annulled log (lsn 21));
  let a = Lsn.Allocator.create () in
  Lsn.Allocator.reset_above a (lsn 20);
  check_int "next allocatable" 21 (Lsn.to_int (Lsn.Allocator.take a))

(* ---- Txn ids ---- *)

let test_txn_allocator () =
  let a = Txn_id.Allocator.create () in
  check_int "first" 1 (Txn_id.to_int (Txn_id.Allocator.take a));
  Txn_id.Allocator.reset_above a (Txn_id.of_int 50);
  check_int "resumes" 51 (Txn_id.to_int (Txn_id.Allocator.take a))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "wal"
    [
      ( "lsn",
        [
          Alcotest.test_case "allocator" `Quick test_lsn_allocator;
          Alcotest.test_case "allocator reset" `Quick test_lsn_allocator_reset;
          Alcotest.test_case "compare" `Quick test_lsn_compare;
        ] );
      ("record", [ Alcotest.test_case "size" `Quick test_record_size ]);
      ( "hot_log",
        [
          Alcotest.test_case "in order" `Quick test_hot_log_in_order;
          Alcotest.test_case "gap then fill" `Quick test_hot_log_gap_then_fill;
          Alcotest.test_case "duplicate" `Quick test_hot_log_duplicate;
          Alcotest.test_case "chained above" `Quick test_hot_log_chained_above;
          Alcotest.test_case "annul range" `Quick test_hot_log_annul;
          Alcotest.test_case "annul with pending" `Quick
            test_hot_log_annul_with_pending;
          Alcotest.test_case "drop below (GC)" `Quick test_hot_log_drop_below;
          Alcotest.test_case "anchored" `Quick test_hot_log_anchored;
          qc prop_scl_order_independent;
          qc prop_annul_then_scl_valid;
          qc prop_drop_below_matches_fold;
        ] );
      ( "chains",
        [
          Alcotest.test_case "validators" `Quick test_chain_validators;
          Alcotest.test_case "block versions" `Quick test_block_versions;
        ] );
      ("truncation", [ Alcotest.test_case "ranges" `Quick test_truncation ]);
      ("txn_id", [ Alcotest.test_case "allocator" `Quick test_txn_allocator ]);
    ]
