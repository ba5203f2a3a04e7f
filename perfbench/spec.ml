(* The three workloads.  Each is a single-process, open-loop Poisson
   arrival stream on the simulated clock against the default cluster:
   V6 layout (six segments per protection group, two per AZ, 4/6 write and
   3/6 read quorums), two protection groups, lognormal link latency with
   ~250 us intra-AZ and ~1 ms inter-AZ medians (sigma 0.35), writer in AZ1.
   The seed drives the arrivals, keys, values and network draws; the fault
   schedules are fixed. *)

let cluster_note =
  "cluster: V6 layout, 2 protection groups, writer in AZ1, lognormal links \
   (median 250 us intra-AZ, 1 ms inter-AZ, sigma 0.35); open-loop Poisson arrivals"

(* Shared by all three workloads. *)
let ops_per_txn = 4
let key_count = 16384
let value_size = 64
let drain_ms = 200 (* simulated time after the last arrival, still timed *)

type fault =
  | Writer_crash of { at_ms : int; down_ms : int }
      (** [Database.crash], then [Database.recover] [down_ms] later. *)
  | Storage_crash of { at_ms : int; down_ms : int; pg : int; member : int }
      (** Storage-node process crash with disks intact, then restart. *)
  | Replacement of { at_ms : int; pg : int; member : int }
      (** Permanent loss of a segment followed by the Figure 5 flow: start
          the replacement, hydrate, finish once caught up. *)

type t = {
  name : string;
  why : string;
  rounds : int;
      (** Distinct rounds (round seeds) per run: simulated metrics pool
          them, so more rounds steady the seed-to-seed spread. *)
  rate_per_s : float;  (** Mean Poisson arrival rate (transactions). *)
  offered_ms : int;  (** Arrivals are generated over [0, offered_ms). *)
  write_prob : float;  (** Each operation is a put with this probability. *)
  mtr_prob : float;
      (** Chance that a transaction with two or more puts issues them as
          one multi-block mini-transaction. *)
  zipf_theta : float;
  n_blocks : int;
  cache_capacity : int;
  preload : bool;
      (** Write every key once before the timed window, so reads find
          materialized versions in storage. *)
  gray_node : (int * int * float) option;
      (** (pg, member, latency factor) of a degraded storage node. *)
  replica : bool;
  faults : fault list;
}

let oltp_write =
  {
    name = "oltp_write";
    rounds = 6;
    why =
      "write-heavy Zipf mix over 1024 blocks that all fit the cache: boxcar, Net, \
       storage apply, Hot_log, consistency points and the commit queue do the work";
    rate_per_s = 2000.;
    offered_ms = 2000;
    write_prob = 0.75;
    mtr_prob = 0.2;
    zipf_theta = 0.9;
    n_blocks = 1024;
    cache_capacity = 1024;
    preload = false;
    gray_node = None;
    replica = false;
    faults = [];
  }

let read_miss =
  {
    name = "read_miss";
    rounds = 3;
    why =
      "read-heavy low-skew mix over 4096 blocks with a 128-block cache and one \
       gray storage node: Reader, hedged reads, Buffer_cache and segment \
       read_block do the work";
    rate_per_s = 2000.;
    offered_ms = 2000;
    write_prob = 0.05;
    mtr_prob = 0.;
    zipf_theta = 0.2;
    n_blocks = 4096;
    cache_capacity = 128;
    preload = true;
    gray_node = Some (0, 0, 8.);
    replica = false;
    faults = [];
  }

let fault_recovery =
  {
    oltp_write with
    name = "fault_recovery";
    rounds = 30;
    why =
      "the oltp_write mix at half rate with a read replica under writer \
       crash/recover, a storage-node restart and a segment replacement: \
       recovery, epochs, gossip, hydration and the replica stream run";
    rate_per_s = 1000.;
    offered_ms = 3000;
    replica = true;
    faults =
      [
        Writer_crash { at_ms = 300; down_ms = 50 };
        Storage_crash { at_ms = 700; down_ms = 600; pg = 0; member = 2 };
        Writer_crash { at_ms = 1100; down_ms = 50 };
        Replacement { at_ms = 1600; pg = 1; member = 3 };
        Writer_crash { at_ms = 2500; down_ms = 50 };
      ];
  }

let all = [ oltp_write; read_miss; fault_recovery ]
let find name = List.find_opt (fun s -> String.equal s.name name) all
