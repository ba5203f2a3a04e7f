(* Tests for the storage substrate: block store, segments, disk, S3, and
   storage-node actors over the simulated network. *)
open Simcore
open Wal
open Quorum
module Protocol = Storage.Protocol

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let lsn = Lsn.of_int
let blk = Block_id.of_int
let txn = Txn_id.of_int

let put ~l ?(prev = Lsn.none) ?(prev_block = Lsn.none) ?(t = 1) ~block key value =
  Log_record.make ~lsn:(lsn l) ~prev_volume:(lsn (l - 1)) ~prev_segment:prev
    ~prev_block ~block:(blk block) ~txn:(txn t) ~mtr_id:l ~mtr_end:true
    ~op:(Log_record.Put { key; value })

(* ---- Block_store ---- *)

let test_block_store_versions () =
  let s = Storage.Block_store.create () in
  Storage.Block_store.apply s (put ~l:1 ~block:0 "a" "v1");
  Storage.Block_store.apply s (put ~l:2 ~prev_block:(lsn 1) ~t:2 ~block:0 "a" "v2");
  let vs = Storage.Block_store.versions s (blk 0) ~key:"a" in
  check_int "two versions" 2 (List.length vs);
  (match vs with
  | v :: _ -> check_int "newest first" 2 (Lsn.to_int v.Storage.Block_store.lsn)
  | [] -> Alcotest.fail "no versions");
  check_int "applied_upto" 2 (Lsn.to_int (Storage.Block_store.applied_upto s))

let test_block_store_read_at () =
  let s = Storage.Block_store.create () in
  Storage.Block_store.apply s (put ~l:1 ~block:0 "a" "v1");
  Storage.Block_store.apply s (put ~l:5 ~prev_block:(lsn 1) ~t:2 ~block:0 "a" "v2");
  let at l =
    match
      Storage.Block_store.read_at s (blk 0) ~key:"a" ~as_of:(lsn l)
        ~exclude:Txn_id.Set.empty
    with
    | Some v -> v.Storage.Block_store.value
    | None -> None
  in
  Alcotest.(check (option string)) "old view" (Some "v1") (at 3);
  Alcotest.(check (option string)) "new view" (Some "v2") (at 5);
  Alcotest.(check (option string)) "before everything" None (at 0);
  (* Exclusion backs out a transaction (undo semantics). *)
  (match
     Storage.Block_store.read_at s (blk 0) ~key:"a" ~as_of:(lsn 5)
       ~exclude:(Txn_id.Set.singleton (txn 2))
   with
  | Some v -> Alcotest.(check (option string)) "excluded" (Some "v1") v.Storage.Block_store.value
  | None -> Alcotest.fail "expected v1")

let test_block_store_gc () =
  let s = Storage.Block_store.create () in
  for i = 1 to 5 do
    Storage.Block_store.apply s
      (put ~l:i ~prev_block:(if i = 1 then Lsn.none else lsn (i - 1)) ~block:0
         "a" (Printf.sprintf "v%d" i))
  done;
  (* Floor at 3: versions 1,2 superseded by the committed version 3 ->
     collected. *)
  let dropped =
    Storage.Block_store.gc s ~keep_at_or_above:(lsn 3) ~is_committed:(fun _ -> true)
  in
  check_int "collected" 2 dropped;
  check_int "remaining" 3 (List.length (Storage.Block_store.versions s (blk 0) ~key:"a"));
  (* The floor's visible version survives. *)
  (match
     Storage.Block_store.read_at s (blk 0) ~key:"a" ~as_of:(lsn 3)
       ~exclude:Txn_id.Set.empty
   with
  | Some v -> Alcotest.(check (option string)) "floor view" (Some "v3") v.Storage.Block_store.value
  | None -> Alcotest.fail "floor version collected");
  (* Uncommitted versions never anchor the cut: with nothing committed,
     GC collects nothing. *)
  let s2 = Storage.Block_store.create () in
  for i = 1 to 4 do
    Storage.Block_store.apply s2
      (put ~l:i ~prev_block:(if i = 1 then Lsn.none else lsn (i - 1)) ~block:0
         "a" (Printf.sprintf "v%d" i))
  done;
  check_int "conservative without commit info" 0
    (Storage.Block_store.gc s2 ~keep_at_or_above:(lsn 4)
       ~is_committed:(fun _ -> false))

let test_block_store_rollback () =
  let s = Storage.Block_store.create () in
  for i = 1 to 5 do
    Storage.Block_store.apply s
      (put ~l:i ~prev_block:(if i = 1 then Lsn.none else lsn (i - 1)) ~block:0
         "a" (Printf.sprintf "v%d" i))
  done;
  let dropped = Storage.Block_store.rollback_above s (lsn 2) in
  check_int "rolled back" 3 dropped;
  check_int "applied clamped" 2 (Lsn.to_int (Storage.Block_store.applied_upto s))

let test_block_store_scrub () =
  let s = Storage.Block_store.create () in
  Storage.Block_store.apply s (put ~l:1 ~block:0 "a" "v1");
  check_bool "clean verifies" true (Storage.Block_store.verify s (blk 0));
  check_bool "corruption injected" true (Storage.Block_store.corrupt s (blk 0));
  check_bool "detected" false (Storage.Block_store.verify s (blk 0));
  (* Repair by reloading a good snapshot. *)
  let good = Storage.Block_store.create () in
  Storage.Block_store.apply good (put ~l:1 ~block:0 "a" "v1");
  Storage.Block_store.load_snapshot s (blk 0)
    (Storage.Block_store.block_snapshot good (blk 0));
  check_bool "repaired" true (Storage.Block_store.verify s (blk 0))

(* From-scratch block checksum: the order-independent sum of a digest of
   each key's newest version, recomputed from the block's snapshot. *)
let reference_checksum s b =
  List.fold_left
    (fun acc (key, vs) ->
      match vs with
      | [] -> acc
      | (v : Storage.Block_store.version) :: _ ->
        let h = Bits.fnv1a_string key in
        let h =
          match v.value with
          | Some x -> Bits.fnv1a_add_string h x
          | None -> Bits.fnv1a_add_int h (-1)
        in
        let h = Bits.fnv1a_add_int h (Txn_id.to_int v.txn) in
        acc + Bits.fnv1a_add_int h (Lsn.to_int v.lsn))
    0
    (Storage.Block_store.block_snapshot s b)

let test_block_store_corrupt_until_write () =
  let module B = Storage.Block_store in
  let s = B.create () in
  B.apply s (put ~l:1 ~block:0 "a" "v1");
  B.apply s (put ~l:2 ~block:0 "b" "v2");
  B.apply s (put ~l:3 ~block:1 "c" "v3");
  let before = B.checksum s (blk 0) in
  check_bool "corruption injected" true (B.corrupt s (blk 0));
  check_int "stored checksum untouched" before (B.checksum s (blk 0));
  check_bool "detected" false (B.verify s (blk 0));
  (* Writes elsewhere and collections that drop nothing in the block leave
     the corruption visible. *)
  B.apply s (put ~l:4 ~block:1 "c" "v4");
  check_int "nothing to collect" 0
    (B.gc s ~keep_at_or_above:(lsn 2) ~is_committed:(fun _ -> true));
  check_bool "still detected" false (B.verify s (blk 0));
  check_bool "other block clean" true (B.verify s (blk 1));
  (* The next write to the block re-baselines it: the stored checksum is
     then the full recompute over the (corrupted) contents. *)
  B.apply s (put ~l:5 ~block:0 "a" "v5");
  check_bool "re-baselined by write" true (B.verify s (blk 0));
  check_int "matches recompute" (reference_checksum s (blk 0))
    (B.checksum s (blk 0));
  (* A collection that drops versions from a corrupted block re-baselines
     it too, as does a rollback that drops versions. *)
  check_bool "corrupt again" true (B.corrupt s (blk 0));
  check_int "collected a@1 and c@3" 2
    (B.gc s ~keep_at_or_above:(lsn 5) ~is_committed:(fun _ -> true));
  check_bool "re-baselined by gc" true (B.verify s (blk 0));
  B.apply s (put ~l:6 ~block:0 "b" "v6");
  check_bool "corrupt once more" true (B.corrupt s (blk 0));
  check_int "rolled back" 1 (B.rollback_above s (lsn 5));
  check_bool "re-baselined by rollback" true (B.verify s (blk 0))

(* Random apply / gc / rollback_above / load_snapshot sequences against a
   naive model: every key's full chain in one table, collected by a full
   scan. *)
type store_op =
  | Op_put of int * string * int  (* block, key, txn *)
  | Op_delete of int * string * int
  | Op_gc of int * int  (* floor below the newest LSN, committed-txn mask *)
  | Op_rollback of int  (* bound below the newest LSN *)
  | Op_load of int * (string * (int * int) list) list
      (* block, key -> (txn, value-or-delete) chain, newest first *)

let store_op_gen =
  let open QCheck.Gen in
  let block = int_range 0 3 in
  let key = map (fun i -> String.make 1 (Char.chr (97 + i))) (int_range 0 3) in
  let txn = int_range 1 5 in
  frequency
    [
      (6, map3 (fun b k t -> Op_put (b, k, t)) block key txn);
      (2, map3 (fun b k t -> Op_delete (b, k, t)) block key txn);
      (3, map2 (fun f m -> Op_gc (f, m)) (int_range 0 8) (int_range 0 31));
      (1, map (fun f -> Op_rollback f) (int_range 0 4));
      ( 1,
        map2
          (fun b entries -> Op_load (b, entries))
          block
          (list_size (int_range 0 3)
             (pair key (list_size (int_range 0 3) (pair txn (int_range 0 2))))) );
    ]

let print_store_op = function
  | Op_put (b, k, t) -> Printf.sprintf "put b%d %s t%d" b k t
  | Op_delete (b, k, t) -> Printf.sprintf "delete b%d %s t%d" b k t
  | Op_gc (f, m) -> Printf.sprintf "gc -%d mask %d" f m
  | Op_rollback f -> Printf.sprintf "rollback -%d" f
  | Op_load (b, es) -> Printf.sprintf "load b%d (%d keys)" b (List.length es)

let reference_gc model ~floor ~is_committed =
  let dropped = ref 0 in
  Hashtbl.filter_map_inplace
    (fun _ vs ->
      let rec split kept = function
        | [] -> List.rev kept
        | (v : Storage.Block_store.version) :: rest ->
          if Lsn.(v.lsn <= floor) && is_committed v.txn then begin
            dropped := !dropped + List.length rest;
            List.rev (v :: kept)
          end
          else split (v :: kept) rest
      in
      Some (split [] vs))
    model;
  !dropped

let prop_block_store_matches_model =
  QCheck.Test.make
    ~name:"checksum + gc vs full-scan model"
    ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map print_store_op ops))
        Gen.(list_size (int_range 1 80) store_op_gen))
    (fun ops ->
      let module B = Storage.Block_store in
      let s = B.create () in
      let model : (int * string, B.version list) Hashtbl.t = Hashtbl.create 16 in
      let next = ref 0 in
      let version value t =
        incr next;
        { B.value; txn = txn t; lsn = lsn !next }
      in
      let record b t op =
        Log_record.make ~lsn:(lsn !next) ~prev_volume:(lsn (!next - 1))
          ~prev_segment:Lsn.none ~prev_block:Lsn.none ~block:(blk b)
          ~txn:(txn t) ~mtr_id:!next ~mtr_end:true ~op
      in
      let model_add b k value t =
        let prior = Option.value ~default:[] (Hashtbl.find_opt model (b, k)) in
        Hashtbl.replace model (b, k)
          ({ B.value; txn = txn t; lsn = lsn !next } :: prior)
      in
      let step op =
        match op with
        | Op_put (b, k, t) ->
          incr next;
          let value = string_of_int !next in
          B.apply s (record b t (Log_record.Put { key = k; value }));
          model_add b k (Some value) t
        | Op_delete (b, k, t) ->
          incr next;
          B.apply s (record b t (Log_record.Delete { key = k }));
          model_add b k None t
        | Op_gc (f, mask) ->
          let floor = lsn (max 0 (!next - f)) in
          let is_committed x = mask land (1 lsl (Txn_id.to_int x - 1)) <> 0 in
          let want = reference_gc model ~floor ~is_committed in
          let got = B.gc s ~keep_at_or_above:floor ~is_committed in
          if got <> want then
            QCheck.Test.fail_reportf "gc returned %d, reference %d" got want
        | Op_rollback f ->
          let bound = lsn (max 0 (!next - f)) in
          ignore (B.rollback_above s bound : int);
          Hashtbl.filter_map_inplace
            (fun _ vs ->
              Some (List.filter (fun (v : B.version) -> Lsn.(v.lsn <= bound)) vs))
            model
        | Op_load (b, entries) ->
          (* Distinct keys, as a block snapshot has. *)
          let entries =
            List.sort_uniq (fun (a, _) (c, _) -> String.compare a c) entries
          in
          let image =
            List.map
              (fun (k, chain) ->
                let vs =
                  List.map
                    (fun (t, v) ->
                      version (if v = 0 then None else Some (string_of_int v)) t)
                    chain
                in
                (k, List.rev vs))
              entries
          in
          B.load_snapshot s (blk b) image;
          Hashtbl.filter_map_inplace
            (fun (b', _) vs -> if b' = b then None else Some vs)
            model;
          List.iter (fun (k, vs) -> Hashtbl.replace model (b, k) vs) image
      in
      let rec descending = function
        | (a : B.version) :: (b :: _ as rest) ->
          Lsn.(a.lsn > b.lsn) && descending rest
        | [ _ ] | [] -> true
      in
      (* The image a block read returned before [block_as_of]: the full
         snapshot, each chain filtered. *)
      let filtered_image b ~as_of =
        List.filter_map
          (fun (key, versions) ->
            match
              List.filter (fun (v : B.version) -> Lsn.(v.lsn <= as_of)) versions
            with
            | [] -> None
            | vs -> Some (key, vs))
          (B.block_snapshot s (blk b))
      in
      List.iter
        (fun op ->
          step op;
          for b = 0 to 3 do
            if B.checksum s (blk b) <> reference_checksum s (blk b) then
              QCheck.Test.fail_reportf "block %d: stored checksum is stale after %s"
                b (print_store_op op);
            List.iter
              (fun (k, vs) ->
                if not (descending vs) then
                  QCheck.Test.fail_reportf
                    "block %d key %s: chain not LSN-descending after %s" b k
                    (print_store_op op))
              (B.block_snapshot s (blk b));
            for as_of = 0 to !next + 1 do
              if
                B.block_as_of s (blk b) ~as_of:(lsn as_of)
                <> filtered_image b ~as_of:(lsn as_of)
              then
                QCheck.Test.fail_reportf
                  "block %d: image as of %d differs from the filtered one after %s"
                  b as_of (print_store_op op)
            done
          done;
          let total = ref 0 and bytes = ref 0 in
          Hashtbl.iter
            (fun (b, k) vs ->
              total := !total + List.length vs;
              List.iter
                (fun (v : B.version) ->
                  bytes :=
                    !bytes + String.length k
                    + (match v.value with Some x -> String.length x | None -> 0)
                    + 24)
                vs;
              if B.versions s (blk b) ~key:k <> vs then
                QCheck.Test.fail_reportf "block %d key %s: chain differs after %s"
                  b k (print_store_op op))
            model;
          if B.version_count s <> !total || B.bytes_used s <> !bytes then
            QCheck.Test.fail_reportf "accounting differs after %s"
              (print_store_op op))
        ops;
      true)

(* ---- Disk ---- *)

let test_disk_fifo () =
  let sim = Sim.create () in
  let rng = Rng.create 1 in
  let d =
    Storage.Disk.create ~sim ~rng ~service:(Distribution.constant (Time_ns.us 100))
      ~per_byte_ns:10
  in
  let log = ref [] in
  Storage.Disk.submit d ~bytes:100 (fun () -> log := 1 :: !log);
  Storage.Disk.submit d ~bytes:100 (fun () -> log := 2 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2 ] (List.rev !log);
  (* Two ops of 100us + 1us transfer each, serialized. *)
  check_int "completion time" (Time_ns.us 202) (Sim.now sim);
  check_int "completed" 2 (Storage.Disk.completed d)

(* ---- Segment ---- *)

let make_segment ?(kind = Membership.Full) () =
  Storage.Segment.create ~pg:(Storage.Pg_id.of_int 0) ~seg:(Member_id.of_int 0) ~kind

let chain n =
  List.init n (fun i ->
      let l = i + 1 in
      put ~l ~prev:(if l = 1 then Lsn.none else lsn (l - 1)) ~block:(l mod 3)
        (Printf.sprintf "k%d" (l mod 3))
        (Printf.sprintf "v%d" l))

let test_segment_insert_coalesce_read () =
  let s = make_segment () in
  ignore (Storage.Segment.insert_records s (chain 6) : Lsn.t);
  check_int "scl" 6 (Lsn.to_int (Storage.Segment.scl s));
  check_int "coalesced" 6 (Storage.Segment.coalesce s);
  check_int "coalesced point" 6 (Lsn.to_int (Storage.Segment.coalesced_upto s));
  Storage.Segment.note_pgcl s (lsn 6);
  match Storage.Segment.read_block s ~block:(blk 0) ~as_of:(lsn 6) with
  | Ok img ->
    check_bool "has key" true
      (List.exists (fun (k, _) -> k = "k0") img.Protocol.image_entries)
  | Error e -> Alcotest.failf "read failed: %a" Protocol.pp_read_error e

let test_segment_read_acceptance () =
  let s = make_segment () in
  ignore (Storage.Segment.insert_records s (chain 4) : Lsn.t);
  Storage.Segment.note_pgcl s (lsn 4);
  (* as_of beyond SCL while the group's durable point says records exist
     there this segment lacks: refused. *)
  Storage.Segment.note_pgcl s (lsn 9);
  (match Storage.Segment.read_block s ~block:(blk 0) ~as_of:(lsn 9) with
  | Error (Protocol.Beyond_scl _) -> ()
  | _ -> Alcotest.fail "expected Beyond_scl");
  (* Fresh segment: as_of beyond SCL but PGCL proves the group has no
     records between SCL and as_of -> served. *)
  let s = make_segment () in
  ignore (Storage.Segment.insert_records s (chain 4) : Lsn.t);
  Storage.Segment.note_pgcl s (lsn 4);
  (match Storage.Segment.read_block s ~block:(blk 1) ~as_of:(lsn 9) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Protocol.pp_read_error e);
  (* Tail segments never serve blocks. *)
  let t = make_segment ~kind:Membership.Tail () in
  ignore (Storage.Segment.insert_records t (chain 4) : Lsn.t);
  match Storage.Segment.read_block t ~block:(blk 0) ~as_of:(lsn 2) with
  | Error Protocol.Tail_segment -> ()
  | _ -> Alcotest.fail "expected Tail_segment"

let test_segment_epochs () =
  let s = make_segment () in
  let e v m = { Protocol.volume = Epoch.of_int v; membership = Epoch.of_int m } in
  (match Storage.Segment.check_epochs s (e 1 1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "initial epochs rejected");
  (* Higher volume epoch adopted; the old one then fenced. *)
  (match Storage.Segment.check_epochs s (e 3 1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "new epoch rejected");
  (match Storage.Segment.check_epochs s (e 1 1) with
  | Error (Protocol.Stale_volume_epoch cur) ->
    check_int "current reported" 3 (Epoch.to_int cur)
  | _ -> Alcotest.fail "stale volume epoch accepted");
  Storage.Segment.install_membership s ~epoch:(Epoch.of_int 2) ~peers:[];
  match Storage.Segment.check_epochs s (e 3 1) with
  | Error (Protocol.Stale_membership_epoch _) -> ()
  | _ -> Alcotest.fail "stale membership epoch accepted"

let test_segment_truncate () =
  let s = make_segment () in
  ignore (Storage.Segment.insert_records s (chain 8) : Lsn.t);
  ignore (Storage.Segment.coalesce s : int);
  let dropped = Storage.Segment.truncate s ~above:(lsn 5) ~upto:(lsn 100) in
  check_bool "dropped records and versions" true (dropped > 0);
  check_int "scl" 5 (Lsn.to_int (Storage.Segment.scl s));
  check_int "coalesced rolled back" 5 (Lsn.to_int (Storage.Segment.coalesced_upto s))

let test_segment_hydrate_roundtrip () =
  let donor = make_segment () in
  ignore (Storage.Segment.insert_records donor (chain 10) : Lsn.t);
  ignore (Storage.Segment.coalesce donor : int);
  let records, blocks = Storage.Segment.hydrate_export donor ~since:Lsn.none ~want_blocks:true in
  check_int "all records" 10 (List.length records);
  check_bool "blocks included" true (blocks <> []);
  let fresh = make_segment () in
  Storage.Segment.hydrate_import fresh ~records ~blocks
    ~donor_scl:(Storage.Segment.scl donor)
    ~coalesced:(Storage.Segment.coalesced_upto donor);
  check_int "scl matches donor" 10 (Lsn.to_int (Storage.Segment.scl fresh));
  Storage.Segment.note_pgcl fresh (lsn 10);
  match Storage.Segment.read_block fresh ~block:(blk 1) ~as_of:(lsn 10) with
  | Ok img -> check_bool "readable" true (img.Protocol.image_entries <> [])
  | Error e -> Alcotest.failf "read failed: %a" Protocol.pp_read_error e

let test_segment_hydrate_from_gced_donor () =
  (* Donor whose hot log was fully collected: hydration must still hand
     over the chain position (anchor = donor SCL) and blocks. *)
  let donor = make_segment () in
  ignore (Storage.Segment.insert_records donor (chain 10) : Lsn.t);
  ignore (Storage.Segment.coalesce donor : int);
  Storage.Segment.set_backup_upto donor (lsn 10);
  ignore (Storage.Segment.advance_pgmrpl donor (lsn 10) : int);
  ignore (Storage.Segment.gc_hot_log donor : int);
  let records, blocks =
    Storage.Segment.hydrate_export donor ~since:Lsn.none ~want_blocks:true
  in
  check_int "nothing retained" 0 (List.length records);
  let fresh = make_segment () in
  Storage.Segment.hydrate_import fresh ~records ~blocks
    ~donor_scl:(Storage.Segment.scl donor)
    ~coalesced:(Storage.Segment.coalesced_upto donor);
  check_int "adopted donor chain position" 10
    (Lsn.to_int (Storage.Segment.scl fresh));
  check_bool "blocks installed" true
    (Storage.Block_store.blocks (Storage.Segment.store fresh) <> [])

let test_segment_hydrate_stale_snapshot_ignored () =
  (* Regression: a later hydration round whose donor has coalesced {e less}
     far than the importer must not install the donor's block snapshots.
     The importer materialized "v10" into block 1 off the live stream; the
     donor's snapshot still says "v7".  Loading it would roll the block
     back while the importer's coalesce watermark stayed at 10, so records
     8..10 would never be re-applied from the hot log — a silent loss of
     acknowledged writes. *)
  let donor = make_segment () in
  ignore (Storage.Segment.insert_records donor (chain 7) : Lsn.t);
  ignore (Storage.Segment.coalesce donor : int);
  let importer = make_segment () in
  ignore (Storage.Segment.insert_records importer (chain 10) : Lsn.t);
  ignore (Storage.Segment.coalesce importer : int);
  let records, blocks =
    Storage.Segment.hydrate_export donor ~since:(Storage.Segment.scl importer)
      ~want_blocks:true
  in
  check_int "donor has no newer records" 0 (List.length records);
  check_bool "donor still offers snapshots" true (blocks <> []);
  Storage.Segment.hydrate_import importer ~records ~blocks
    ~donor_scl:(Storage.Segment.scl donor)
    ~coalesced:(Storage.Segment.coalesced_upto donor);
  check_int "importer scl untouched" 10 (Lsn.to_int (Storage.Segment.scl importer));
  check_int "coalesce watermark untouched" 10
    (Lsn.to_int (Storage.Segment.coalesced_upto importer));
  Storage.Segment.note_pgcl importer (lsn 10);
  match Storage.Segment.read_block importer ~block:(blk 1) ~as_of:(lsn 10) with
  | Error e -> Alcotest.failf "read failed: %a" Protocol.pp_read_error e
  | Ok img -> (
    (* chain writes key "k1" on block 1 at LSNs 1,4,7,10; newest is v10. *)
    match List.assoc_opt "k1" img.Protocol.image_entries with
    | Some ({ Storage.Block_store.value = Some v; _ } :: _) ->
      Alcotest.(check string) "newest write survived the stale import" "v10" v
    | _ -> Alcotest.fail "k1 lost its newest version")

let test_segment_txn_statuses () =
  let s = make_segment () in
  let commit =
    Log_record.make ~lsn:(lsn 1) ~prev_volume:Lsn.none ~prev_segment:Lsn.none
      ~prev_block:Lsn.none ~block:(blk 0) ~txn:(txn 7) ~mtr_id:1 ~mtr_end:true
      ~op:Log_record.Commit
  in
  ignore (Storage.Segment.insert_records s [ commit ] : Lsn.t);
  (match Storage.Segment.txn_statuses s with
  | [ (t7, l, false) ] ->
    check_int "txn" 7 (Txn_id.to_int t7);
    check_int "scn" 1 (Lsn.to_int l)
  | _ -> Alcotest.fail "expected one commit status");
  Storage.Segment.merge_statuses s [ (txn 9, lsn 3, true) ];
  check_int "merged" 2 (List.length (Storage.Segment.txn_statuses s))

(* ---- Storage node over network ---- *)

let node_fixture () =
  let sim = Sim.create () in
  let rng = Rng.create 42 in
  let net =
    Simnet.Net.create ~sim ~rng:(Rng.split rng)
      ~default_latency:(Distribution.constant (Time_ns.us 100)) ()
  in
  let s3 =
    Storage.S3.create ~sim ~latency:(Distribution.constant (Time_ns.ms 1))
      ~rng:(Rng.split rng)
  in
  (sim, rng, net, s3)

let epochs1 = { Protocol.volume = Epoch.initial; membership = Epoch.initial }

let test_node_write_ack () =
  let sim, rng, net, s3 = node_fixture () in
  let addr = Simnet.Addr.of_int 1 and client = Simnet.Addr.of_int 0 in
  let node =
    Storage.Storage_node.create ~sim ~rng ~net ~addr ~s3
      ~config:Storage.Storage_node.default_config ()
  in
  Storage.Storage_node.add_segment node (make_segment ());
  Storage.Storage_node.start node;
  let acks = ref [] in
  Simnet.Net.register net client (fun env ->
      match env.Simnet.Net.msg with
      | Protocol.Write_ack { scl; _ } -> acks := Lsn.to_int scl :: !acks
      | _ -> ());
  Simnet.Net.send net ~src:client ~dst:addr
    (Protocol.Write_batch
       {
         pg = Storage.Pg_id.of_int 0;
         seg = Member_id.of_int 0;
         records = chain 3;
         pgcl = Lsn.none;
         epochs = epochs1;
       });
  Sim.run_until sim (Time_ns.ms 10);
  Alcotest.(check (list int)) "ack carries SCL" [ 3 ] !acks

let test_node_gossip_fills_hole () =
  let sim, rng, net, s3 = node_fixture () in
  let a1 = Simnet.Addr.of_int 1 and a2 = Simnet.Addr.of_int 2 in
  let mk addr seg_id =
    let node =
      Storage.Storage_node.create ~sim ~rng:(Rng.split rng) ~net ~addr ~s3
        ~config:Storage.Storage_node.default_config ()
    in
    let seg =
      Storage.Segment.create ~pg:(Storage.Pg_id.of_int 0)
        ~seg:(Member_id.of_int seg_id) ~kind:Membership.Full
    in
    Storage.Segment.set_peers seg [ (Member_id.of_int 0, a1); (Member_id.of_int 1, a2) ];
    Storage.Storage_node.add_segment node seg;
    Storage.Storage_node.start node;
    (node, seg)
  in
  let _, seg1 = mk a1 0 in
  let _, seg2 = mk a2 1 in
  (* Node 1 has the full chain; node 2 has a hole (missing record 2). *)
  let records = chain 5 in
  ignore (Storage.Segment.insert_records seg1 records : Lsn.t);
  ignore
    (Storage.Segment.insert_records seg2
       (List.filter (fun (r : Log_record.t) -> Lsn.to_int r.lsn <> 2) records)
      : Lsn.t);
  check_int "hole blocks SCL" 1 (Lsn.to_int (Storage.Segment.scl seg2));
  Sim.run_until sim (Time_ns.sec 2);
  check_int "gossip filled the hole" 5 (Lsn.to_int (Storage.Segment.scl seg2))

let test_node_crash_restart () =
  let sim, rng, net, s3 = node_fixture () in
  let addr = Simnet.Addr.of_int 1 and client = Simnet.Addr.of_int 0 in
  let node =
    Storage.Storage_node.create ~sim ~rng ~net ~addr ~s3
      ~config:Storage.Storage_node.default_config ()
  in
  let seg = make_segment () in
  Storage.Storage_node.add_segment node seg;
  Storage.Storage_node.start node;
  ignore (Storage.Segment.insert_records seg (chain 3) : Lsn.t);
  Storage.Storage_node.crash node;
  let got_reply = ref false in
  Simnet.Net.register net client (fun _ -> got_reply := true);
  Simnet.Net.send net ~src:client ~dst:addr
    (Protocol.Scl_probe
       { req = 0; pg = Storage.Pg_id.of_int 0; seg = Member_id.of_int 0; epochs = epochs1 });
  Sim.run_until sim (Time_ns.ms 10);
  check_bool "down node silent" false !got_reply;
  Storage.Storage_node.restart node;
  check_int "durable state survives crash" 3 (Lsn.to_int (Storage.Segment.scl seg));
  Simnet.Net.send net ~src:client ~dst:addr
    (Protocol.Scl_probe
       { req = 0; pg = Storage.Pg_id.of_int 0; seg = Member_id.of_int 0; epochs = epochs1 });
  Sim.run_until sim (Time_ns.ms 20);
  check_bool "restarted node answers" true !got_reply

let test_s3_backup () =
  let sim, _, _, s3 = node_fixture () in
  let durable = ref false in
  Storage.S3.upload s3
    {
      Storage.S3.pg = Storage.Pg_id.of_int 0;
      seg = Member_id.of_int 0;
      upto = lsn 10;
      bytes = 1000;
      taken_at = Sim.now sim;
    }
    ~on_durable:(fun () -> durable := true);
  check_int "in flight" 1 (Storage.S3.uploads_in_flight s3);
  Sim.run sim;
  check_bool "durable" true !durable;
  check_int "coverage" 10
    (Lsn.to_int (Storage.S3.durable_upto s3 (Storage.Pg_id.of_int 0) (Member_id.of_int 0)))

let () =
  Alcotest.run "storage"
    [
      ( "block_store",
        [
          Alcotest.test_case "version chains" `Quick test_block_store_versions;
          Alcotest.test_case "mvcc read_at" `Quick test_block_store_read_at;
          Alcotest.test_case "gc keeps floor version" `Quick test_block_store_gc;
          Alcotest.test_case "rollback_above" `Quick test_block_store_rollback;
          Alcotest.test_case "checksum scrub" `Quick test_block_store_scrub;
          Alcotest.test_case "corrupt fails verify until a write" `Quick
            test_block_store_corrupt_until_write;
          QCheck_alcotest.to_alcotest prop_block_store_matches_model;
        ] );
      ("disk", [ Alcotest.test_case "fifo queueing" `Quick test_disk_fifo ]);
      ( "segment",
        [
          Alcotest.test_case "insert/coalesce/read" `Quick
            test_segment_insert_coalesce_read;
          Alcotest.test_case "read acceptance" `Quick test_segment_read_acceptance;
          Alcotest.test_case "epoch fencing" `Quick test_segment_epochs;
          Alcotest.test_case "truncate" `Quick test_segment_truncate;
          Alcotest.test_case "hydrate roundtrip" `Quick test_segment_hydrate_roundtrip;
          Alcotest.test_case "hydrate from GCed donor" `Quick
            test_segment_hydrate_from_gced_donor;
          Alcotest.test_case "hydrate ignores stale snapshot" `Quick
            test_segment_hydrate_stale_snapshot_ignored;
          Alcotest.test_case "txn statuses" `Quick test_segment_txn_statuses;
        ] );
      ( "node",
        [
          Alcotest.test_case "write -> ack with SCL" `Quick test_node_write_ack;
          Alcotest.test_case "gossip fills hole" `Quick test_node_gossip_fills_hole;
          Alcotest.test_case "crash/restart" `Quick test_node_crash_restart;
          Alcotest.test_case "s3 backup" `Quick test_s3_backup;
        ] );
    ]
