(* Tests for quorum sets, epochs, membership transitions, and layouts. *)
open Quorum

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let m i = Member_id.of_int i
let mset is = Member_id.set_of_list (List.map m is)
let six = List.init 6 m

(* ---- Quorum_set basics ---- *)

let test_atom_satisfaction () =
  let q = Quorum_set.k_of 4 six in
  check_bool "4 of 6" true (Quorum_set.satisfied q (mset [ 0; 1; 2; 3 ]));
  check_bool "3 of 6" false (Quorum_set.satisfied q (mset [ 0; 1; 2 ]));
  check_bool "extra members ignored" true
    (Quorum_set.satisfied q (mset [ 0; 1; 2; 3; 9 ]))

let test_atom_validation () =
  Alcotest.check_raises "threshold too big"
    (Invalid_argument "Quorum_set.k_of: threshold exceeds member count")
    (fun () -> ignore (Quorum_set.k_of 4 [ m 0; m 1 ]));
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Quorum_set.k_of: duplicate members") (fun () ->
      ignore (Quorum_set.k_of 1 [ m 0; m 0 ]))

let test_boolean_combinators () =
  let a = Quorum_set.k_of 2 [ m 0; m 1; m 2 ] in
  let b = Quorum_set.k_of 2 [ m 3; m 4; m 5 ] in
  check_bool "AND needs both" false
    (Quorum_set.satisfied (Quorum_set.all [ a; b ]) (mset [ 0; 1 ]));
  check_bool "AND satisfied" true
    (Quorum_set.satisfied (Quorum_set.all [ a; b ]) (mset [ 0; 1; 3; 4 ]));
  check_bool "OR either side" true
    (Quorum_set.satisfied (Quorum_set.any [ a; b ]) (mset [ 3; 4 ]));
  check_bool "OR none" false
    (Quorum_set.satisfied (Quorum_set.any [ a; b ]) (mset [ 0; 3 ]))

let test_min_cardinality () =
  check_int "plain atom" 4 (Quorum_set.min_cardinality (Quorum_set.k_of 4 six));
  let tiered_write =
    Quorum_set.any
      [ Quorum_set.k_of 4 six; Quorum_set.k_of 3 [ m 0; m 2; m 4 ] ]
  in
  check_int "tiered write can use 3 fulls" 3
    (Quorum_set.min_cardinality tiered_write)

(* ---- The paper's rules (§2.1) ---- *)

let test_aurora_46_rule () =
  let write = Quorum_set.k_of 4 six and read = Quorum_set.k_of 3 six in
  check_bool "read/write overlap" true (Quorum_set.overlaps ~read ~write);
  check_bool "write self-overlap" true (Quorum_set.self_overlapping write);
  (match Quorum_set.Rule.make ~read ~write with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* 2/6 read would not overlap a 4/6 write. *)
  check_bool "2/6 read unsafe" false
    (Quorum_set.overlaps ~read:(Quorum_set.k_of 2 six) ~write);
  (* 3/6 write quorums can be disjoint. *)
  check_bool "3/6 write unsafe" false
    (Quorum_set.self_overlapping (Quorum_set.k_of 3 six))

let test_tiered_rule_safe () =
  let g = Layout.group_tiered () in
  let rule = Membership.rule g in
  check_bool "tiered overlaps" true
    (Quorum_set.overlaps ~read:rule.Quorum_set.Rule.read
       ~write:rule.Quorum_set.Rule.write);
  check_bool "tiered write self-overlap" true
    (Quorum_set.self_overlapping rule.Quorum_set.Rule.write)

let test_transition_rule_safe () =
  (* Figure 5, epoch 2: write (4/6 ABCDEF AND 4/6 ABCDEG), read (3/6 OR 3/6). *)
  let abcdef = List.init 6 m in
  let abcdeg = List.init 5 m @ [ m 6 ] in
  let write =
    Quorum_set.all [ Quorum_set.k_of 4 abcdef; Quorum_set.k_of 4 abcdeg ]
  in
  let read =
    Quorum_set.any [ Quorum_set.k_of 3 abcdef; Quorum_set.k_of 3 abcdeg ]
  in
  (match Quorum_set.Rule.make ~read ~write with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* Writing to ABCD satisfies both sides (the paper's observation). *)
  check_bool "ABCD meets transitional write quorum" true
    (Quorum_set.satisfied write (mset [ 0; 1; 2; 3 ]))

let prop_overlap_brute_force =
  (* Cross-validate [overlaps] against direct counterexample search on
     random small quorum structures. *)
  let gen =
    QCheck.Gen.(
      let* n = int_range 3 6 in
      let members = List.init n Member_id.of_int in
      let* k1 = int_range 1 n in
      let* k2 = int_range 1 n in
      let* extra = int_range 0 1 in
      let q1 = Quorum_set.k_of k1 members in
      let q2 = Quorum_set.k_of k2 members in
      if extra = 0 then return (q1, q2)
      else
        let* k3 = int_range 1 n in
        return (Quorum_set.all [ q1; Quorum_set.k_of k3 members ], q2))
  in
  QCheck.Test.make ~name:"overlaps agrees with k-arithmetic" ~count:200
    (QCheck.make gen) (fun (read, write) ->
      match (read, write) with
      | Quorum_set.Atom { threshold = kr; members }, Quorum_set.Atom { threshold = kw; _ }
        ->
        let n = Member_id.Set.cardinal members in
        Quorum_set.overlaps ~read ~write = (kr + kw > n)
      | _ ->
        (* Composite cases: just require consistency with satisfiability of
           complement-disjointness (re-derived via tolerates). *)
        let u = Member_id.Set.union (Quorum_set.members read) (Quorum_set.members write) in
        let brute =
          (* search all subsets for a violating split *)
          let arr = Array.of_list (Member_id.Set.elements u) in
          let n = Array.length arr in
          let rec search mask =
            if mask >= 1 lsl n then true
            else begin
              let s = ref Member_id.Set.empty in
              Array.iteri
                (fun i mm -> if mask land (1 lsl i) <> 0 then s := Member_id.Set.add mm !s)
                arr;
              if
                Quorum_set.satisfied read !s
                && Quorum_set.satisfied write (Member_id.Set.diff u !s)
              then false
              else search (mask + 1)
            end
          in
          search 0
        in
        Quorum_set.overlaps ~read ~write = brute)

(* ---- The mask evaluator against a set-based oracle ---- *)

(* The set-based evaluator the library had before it compiled formulas to
   member-index masks; kept here as the oracle. *)
let rec oracle t responsive =
  match t with
  | Quorum_set.Atom { threshold; members } ->
    Member_id.Set.cardinal (Member_id.Set.inter members responsive) >= threshold
  | Quorum_set.All ts -> List.for_all (fun t -> oracle t responsive) ts
  | Quorum_set.Any ts -> List.exists (fun t -> oracle t responsive) ts

let subset_of_bits pool bits =
  Member_id.set_of_list (List.filteri (fun i _ -> bits land (1 lsl i) <> 0) pool)

(* Random nested All / Any / k-of formulas over a pool of up to 12
   members.  Atoms may be empty, k may be 0, and operand lists may be
   empty, so trivially true and unsatisfiable formulas both occur. *)
let formula_over pool =
  let open QCheck.Gen in
  let n = List.length pool in
  let atom =
    let* bits = int_range 0 ((1 lsl n) - 1) in
    let ms = Member_id.Set.elements (subset_of_bits pool bits) in
    let* k = int_range 0 (List.length ms) in
    return (Quorum_set.k_of k ms)
  in
  let rec node depth =
    if depth = 0 then atom
    else
      frequency
        [
          (3, atom);
          (1, map Quorum_set.all (list_size (int_range 0 3) (node (depth - 1))));
          (1, map Quorum_set.any (list_size (int_range 0 3) (node (depth - 1))));
        ]
  in
  node 3

let pool_gen max = QCheck.Gen.map (fun n -> List.init n m) (QCheck.Gen.int_range 1 max)
let show_formula = Format.asprintf "%a" Quorum_set.pp

let prop_mask_eval_matches_oracle =
  (* Ids 12 and 13 are never in a pool: responsive non-members, and extra
     members of an explicit index. *)
  let extras = [ m 12; m 13 ] in
  let gen =
    QCheck.Gen.(
      let* pool = pool_gen 12 in
      let* t = formula_over pool in
      let* bits = int_range 0 ((1 lsl 14) - 1) in
      let* order = shuffle_l (pool @ extras) in
      return (t, subset_of_bits (List.init 14 m) bits, order))
  in
  QCheck.Test.make ~name:"mask evaluator agrees with a set-based oracle"
    ~count:500
    (QCheck.make
       ~print:(fun (t, responsive, _) ->
         Format.asprintf "%s on %a" (show_formula t) Member_id.pp_set responsive)
       gen)
    (fun (t, responsive, order) ->
      let want = oracle t responsive in
      let c = Quorum_set.compile t in
      (* Any index order, with extra members, gives the same verdict. *)
      let c' = Quorum_set.compile ~index:(Array.of_list order) t in
      Quorum_set.satisfied t responsive = want
      && Quorum_set.satisfied_mask c (Quorum_set.mask_of_set c responsive) = want
      && Quorum_set.satisfied_mask c' (Quorum_set.mask_of_set c' responsive) = want)

(* Brute force over every subset of the pool, as member sets. *)
let all_subsets pool =
  List.init (1 lsl List.length pool) (subset_of_bits pool)

let prop_properties_match_brute_force =
  let gen =
    QCheck.Gen.(
      let* pool = pool_gen 10 in
      pair (formula_over pool) (formula_over pool) >|= fun (r, w) -> (pool, r, w))
  in
  QCheck.Test.make
    ~name:"overlaps, self_overlapping, min_cardinality vs brute force"
    ~count:150
    (QCheck.make
       ~print:(fun (_, r, w) ->
         Printf.sprintf "read %s; write %s" (show_formula r) (show_formula w))
       gen)
    (fun (pool, read, write) ->
      let subsets = all_subsets pool in
      let within t s = Member_id.Set.inter s (Quorum_set.members t) in
      let universe = Member_id.set_of_list pool in
      let disjoint_pair a b =
        List.exists
          (fun s -> oracle a s && oracle b (Member_id.Set.diff universe s))
          subsets
      in
      let min_card t =
        List.fold_left
          (fun best s ->
            (* Count only the formula's own members, as the library does. *)
            let s = within t s in
            if oracle t s then min best (Member_id.Set.cardinal s) else best)
          max_int subsets
      in
      let check name got want =
        if got <> want then
          QCheck.Test.fail_reportf "%s: library %b, brute force %b" name got want
      in
      check "overlaps" (Quorum_set.overlaps ~read ~write)
        (not (disjoint_pair read write));
      check "self_overlapping" (Quorum_set.self_overlapping write)
        (not (disjoint_pair write write));
      let got = Quorum_set.min_cardinality write and want = min_card write in
      if got <> want then
        QCheck.Test.fail_reportf "min_cardinality: library %d, brute force %d" got
          want;
      true)

(* ---- Epochs ---- *)

let test_epochs () =
  let e1 = Epoch.initial in
  let e2 = Epoch.next e1 in
  check_bool "stale" true (Epoch.is_stale e1 ~current:e2);
  check_bool "current ok" false (Epoch.is_stale e2 ~current:e2);
  check_bool "future ok" false (Epoch.is_stale e2 ~current:e1);
  (match Epoch.check e1 ~current:e2 with
  | Epoch.Stale { current } -> check_int "carries current" 2 (Epoch.to_int current)
  | Epoch.Ok -> Alcotest.fail "expected stale")

(* ---- Membership state machine (Figure 5) ---- *)

let fresh_member id az = { Membership.id = m id; az = Az.of_int az; kind = Membership.Full }

let test_membership_steady () =
  let g = Layout.group_4_of_6 () in
  check_bool "steady" true (Membership.is_steady g);
  check_int "epoch 1" 1 (Epoch.to_int (Membership.epoch g));
  check_int "one variant" 1 (List.length (Membership.variants g));
  check_int "six members" 6 (List.length (Membership.members g))

let test_membership_replace_commit () =
  let g = Layout.group_4_of_6 () in
  let g2 =
    match Membership.begin_change g ~suspect:(m 5) ~replacement:(fresh_member 6 2) with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  check_int "epoch 2" 2 (Epoch.to_int (Membership.epoch g2));
  check_int "two variants" 2 (List.length (Membership.variants g2));
  check_int "seven involved" 7 (List.length (Membership.members g2));
  check_bool "not steady" false (Membership.is_steady g2);
  let g3 =
    match Membership.commit_change g2 ~suspect:(m 5) with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  check_int "epoch 3" 3 (Epoch.to_int (Membership.epoch g3));
  check_bool "steady again" true (Membership.is_steady g3);
  check_bool "suspect gone" true (Membership.find_member g3 (m 5) = None);
  check_bool "replacement in" true (Membership.find_member g3 (m 6) <> None)

let test_membership_revert () =
  let g = Layout.group_4_of_6 () in
  let g2 =
    Result.get_ok
      (Membership.begin_change g ~suspect:(m 5) ~replacement:(fresh_member 6 2))
  in
  let g3 = Result.get_ok (Membership.revert_change g2 ~suspect:(m 5)) in
  check_int "epoch 3" 3 (Epoch.to_int (Membership.epoch g3));
  check_bool "suspect kept" true (Membership.find_member g3 (m 5) <> None);
  check_bool "replacement discarded" true (Membership.find_member g3 (m 6) = None)

let test_membership_double_failure () =
  (* Figure 5's second scenario: E fails while F->G is in flight. *)
  let g = Layout.group_4_of_6 () in
  let g2 =
    Result.get_ok
      (Membership.begin_change g ~suspect:(m 5) ~replacement:(fresh_member 6 2))
  in
  let g3 =
    Result.get_ok
      (Membership.begin_change g2 ~suspect:(m 4) ~replacement:(fresh_member 7 2))
  in
  check_int "epoch 3" 3 (Epoch.to_int (Membership.epoch g3));
  check_int "four variants (ABCD x {E,H} x {F,G})" 4
    (List.length (Membership.variants g3));
  let rule = Membership.rule g3 in
  (* Writing to ABCD still meets the composite write quorum. *)
  check_bool "ABCD suffices" true
    (Quorum_set.satisfied rule.Quorum_set.Rule.write (mset [ 0; 1; 2; 3 ]));
  (* Resolve both; end on ABCDGH. *)
  let g4 = Result.get_ok (Membership.commit_change g3 ~suspect:(m 5)) in
  let g5 = Result.get_ok (Membership.commit_change g4 ~suspect:(m 4)) in
  check_bool "steady" true (Membership.is_steady g5);
  check_int "epoch 5" 5 (Epoch.to_int (Membership.epoch g5))

let test_membership_errors () =
  let g = Layout.group_4_of_6 () in
  (match Membership.begin_change g ~suspect:(m 9) ~replacement:(fresh_member 6 0) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown suspect accepted");
  (match Membership.begin_change g ~suspect:(m 5) ~replacement:(fresh_member 0 0) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "id reuse accepted");
  let g2 =
    Result.get_ok
      (Membership.begin_change g ~suspect:(m 5) ~replacement:(fresh_member 6 2))
  in
  (match Membership.begin_change g2 ~suspect:(m 5) ~replacement:(fresh_member 7 2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double replacement of same suspect accepted");
  (* A tail slot must be repaired by a tail segment. *)
  let tg = Layout.group_tiered () in
  let tail_suspect =
    List.find (fun (mm : Membership.member) -> mm.kind = Membership.Tail) (Membership.members tg)
  in
  (match
     Membership.begin_change tg ~suspect:tail_suspect.Membership.id
       ~replacement:(fresh_member 6 0)
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "kind mismatch accepted")

let test_change_scheme () =
  let g = Layout.group_4_of_6 () in
  (* Extended AZ loss: move to 3/4 over two AZs (§4.1). *)
  let g2 =
    Result.get_ok
      (Membership.change_scheme g ~scheme:Layout.scheme_3_of_4
         (Layout.four_copies_two_az ()))
  in
  check_int "epoch bumped" 2 (Epoch.to_int (Membership.epoch g2));
  check_int "four members" 4 (List.length (Membership.members g2))

let prop_transitions_preserve_safety =
  (* Any random sequence of begin/commit/revert keeps the composite rule
     satisfying both §2.1 obligations (Rule.make_exn inside [rule] would
     raise otherwise) and keeps epochs strictly increasing. *)
  QCheck.Test.make ~name:"random membership transitions stay safe" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 12) (int_range 0 2))
    (fun ops ->
      let g = ref (Layout.group_4_of_6 ()) in
      let next_id = ref 6 in
      let last_epoch = ref (Epoch.to_int (Membership.epoch !g)) in
      List.iter
        (fun op ->
          let apply result =
            match result with
            | Ok g' ->
              let e = Epoch.to_int (Membership.epoch g') in
              assert (e = !last_epoch + 1);
              last_epoch := e;
              (* Forces rule construction: raises if unsafe. *)
              ignore (Membership.rule g' : Quorum_set.Rule.t);
              g := g'
            | Error _ -> ()
          in
          match op with
          | 0 ->
            (* begin a change on some active, unreplaced member *)
            let candidates =
              List.filter
                (fun (mm : Membership.member) ->
                  not
                    (List.exists
                       (fun (p : Membership.pending) ->
                         Member_id.equal p.suspect mm.id
                         || Member_id.equal p.replacement mm.id)
                       (Membership.pendings !g)))
                (Membership.members !g)
            in
            (match candidates with
            | mm :: _ ->
              let r = { Membership.id = m !next_id; az = mm.az; kind = mm.kind } in
              incr next_id;
              apply (Membership.begin_change !g ~suspect:mm.Membership.id ~replacement:r)
            | [] -> ())
          | 1 -> (
            match Membership.pendings !g with
            | p :: _ -> apply (Membership.commit_change !g ~suspect:p.suspect)
            | [] -> ())
          | _ -> (
            match Membership.pendings !g with
            | p :: _ -> apply (Membership.revert_change !g ~suspect:p.suspect)
            | [] -> ())
        )
        ops;
      true)

(* ---- Layouts ---- *)

let test_layouts () =
  let v6 = Layout.aurora_v6 () in
  check_int "six members" 6 (List.length v6);
  List.iteri
    (fun i az ->
      check_int
        (Printf.sprintf "AZ of member %d" i)
        az
        (Az.to_int (List.nth v6 i).Membership.az))
    [ 0; 0; 1; 1; 2; 2 ];
  let tiered = Layout.aurora_tiered () in
  check_int "three fulls" 3
    (List.length
       (List.filter (fun (mm : Membership.member) -> mm.kind = Membership.Full) tiered));
  check_int "members in AZ1" 2
    (Member_id.Set.cardinal (Layout.members_in_az tiered (Az.of_int 0)))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "quorum"
    [
      ( "quorum_set",
        [
          Alcotest.test_case "atom satisfaction" `Quick test_atom_satisfaction;
          Alcotest.test_case "atom validation" `Quick test_atom_validation;
          Alcotest.test_case "boolean combinators" `Quick test_boolean_combinators;
          Alcotest.test_case "min cardinality" `Quick test_min_cardinality;
          Alcotest.test_case "aurora 4/6 rule" `Quick test_aurora_46_rule;
          Alcotest.test_case "tiered rule safe" `Quick test_tiered_rule_safe;
          Alcotest.test_case "transition rule safe" `Quick test_transition_rule_safe;
          qc prop_overlap_brute_force;
          qc prop_mask_eval_matches_oracle;
          qc prop_properties_match_brute_force;
        ] );
      ("epoch", [ Alcotest.test_case "staleness" `Quick test_epochs ]);
      ( "membership",
        [
          Alcotest.test_case "steady" `Quick test_membership_steady;
          Alcotest.test_case "replace + commit" `Quick test_membership_replace_commit;
          Alcotest.test_case "revert" `Quick test_membership_revert;
          Alcotest.test_case "double failure" `Quick test_membership_double_failure;
          Alcotest.test_case "errors" `Quick test_membership_errors;
          Alcotest.test_case "change scheme" `Quick test_change_scheme;
          qc prop_transitions_preserve_safety;
        ] );
      ("layout", [ Alcotest.test_case "rosters" `Quick test_layouts ]);
    ]
