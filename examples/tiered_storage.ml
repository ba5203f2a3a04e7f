(* Quorum sets of unlike members: full + tail segments (paper §4.2).

     dune exec examples/tiered_storage.exe

   A protection group of three full segments (redo log + materialized
   blocks) and three tail segments (redo log only) keeps the AZ+1
   durability bar with roughly half the bytes of six full copies:

     write quorum: 4/6 of any segment  OR  3/3 of the full segments
     read  quorum: 3/6 of any segment  AND 1/3 of the full segments

   The demo runs the same workload against both designs and compares
   storage footprint and fault tolerance. *)

open Simcore
open Quorum
module Database = Aurora_core.Database
module Cluster = Harness.Cluster
module Txn_gen = Workload.Txn_gen
module FM = Availability.Fleet_model

let run_design layout name =
  let cluster =
    Cluster.create { Cluster.default_config with seed = 23; n_pgs = 1; layout }
  in
  let sim = Cluster.sim cluster in
  let gen =
    Txn_gen.create ~sim ~rng:(Rng.create 9) ~db:(Cluster.db cluster)
      ~profile:
        {
          Txn_gen.default_profile with
          write_fraction = 1.;
          ops_per_txn = 4;
          value_size = 256;
        }
      ()
  in
  Txn_gen.run_open_loop gen ~rate_per_sec:2000. ~duration:(Time_ns.sec 1);
  Sim.run_until sim (Time_ns.sec 15);
  let bytes =
    List.fold_left
      (fun acc node ->
        List.fold_left
          (fun acc seg -> acc + Storage.Segment.bytes_stored seg)
          acc
          (Storage.Storage_node.segments node))
      0
      (Cluster.storage_nodes cluster)
  in
  Printf.printf "%-28s acked=%d  storage=%d bytes\n" name (Txn_gen.acked gen) bytes;
  bytes

let () =
  print_endline "same workload, two protection-group designs:\n";
  let v6 = run_design Cluster.V6 "6 full segments" in
  let tiered = run_design Cluster.Tiered "3 full + 3 tail (tiered)" in
  Printf.printf "\nbytes ratio tiered/full: %.2f (data blocks exist only on fulls)\n"
    (float_of_int tiered /. float_of_int v6);

  print_endline "\nfault tolerance (deterministic quorum-set check):";
  List.iter
    (fun (name, layout) ->
      let m = Cluster.layout_membership layout in
      let members = Membership.members m and rule = Membership.rule m in
      let t = FM.az_tolerance ~members ~rule in
      Printf.printf
        "  %-28s survives AZ: %b, survives AZ+1 (repairable): %b\n" name
        t.FM.write_survives_az t.FM.read_survives_az_plus_one)
    [ ("6 full segments", Cluster.V6); ("3 full + 3 tail", Cluster.Tiered) ];

  (* Show the tiered write quorum in both of its shapes. *)
  let m = Cluster.layout_membership Cluster.Tiered in
  let members = Membership.members m and rule = Membership.rule m in
  Format.printf "\ntiered rule: %a@." Quorum_set.Rule.pp rule;
  let fulls =
    List.filter_map
      (fun (m : Membership.member) ->
        if m.Membership.kind = Membership.Full then Some m.Membership.id else None)
      members
  in
  Format.printf "writing to just the three fulls meets quorum: %b@."
    (Quorum_set.satisfied rule.Quorum_set.Rule.write (Member_id.set_of_list fulls));
  print_endline "\ntiered_storage OK."
