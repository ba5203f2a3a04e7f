open Simcore
open Wal
open Quorum
module Protocol = Storage.Protocol
module Pg_id = Storage.Pg_id

type outcome = {
  vcl : Lsn.t;
  vdl : Lsn.t;
  truncate_above : Lsn.t;
  truncate_upto : Lsn.t;
  pg_tails : (Pg_id.t * Lsn.t) list;
  block_tails : (Block_id.t * Lsn.t) list;
  committed : (Txn_id.t * Lsn.t) list;
  aborted : Txn_id.t list;
  interrupted : Txn_id.t list;
  max_txn_seen : Txn_id.t;
  scl_observations : (Pg_id.t * Member_id.t * Lsn.t) list;
      (* post-truncation SCLs, seeding the rebuilt consistency tracker *)
  records_examined : int;
  probes_sent : int;
  duration : Time_ns.t;
}

type fetched = {
  f_records : Log_record.t list;
  f_scl : Lsn.t;
  f_retained_from : Lsn.t;
  f_statuses : (Txn_id.t * Lsn.t * bool) list;
}

type pg_probe = {
  group : Volume.pg;
  replies : (Lsn.t * Lsn.t) Member_id.Tbl.t; (* seg -> (scl, highest) *)
  mutable point : Lsn.t option; (* recovered durable point once read quorum met *)
  mutable fetched : fetched option;
  mutable truncate_acks : Member_id.Set.t;
}

type phase = Probing | Fetching | Truncating | Finished

type t = {
  sim : Sim.t;
  net : Protocol.t Simnet.Net.t;
  my_addr : Simnet.Addr.t;
  volume : Volume.t;
  on_done : (outcome, string) result -> unit;
  started_at : Time_ns.t;
  probes : pg_probe Pg_id.Tbl.t;
  mutable phase : phase;
  mutable probes_sent : int;
  mutable truncate_above : Lsn.t;
  mutable truncate_upto : Lsn.t;
  mutable computed_vdl : Lsn.t;
  mutable result : outcome option;
}

let is_done t = t.phase = Finished

let recovered_point ~scls =
  List.fold_left (fun acc (_, scl) -> Lsn.max acc scl) Lsn.none scls

(* Largest LSN to which the volume chain links gaplessly upward from
   [anchor], visiting only records covered by their group's recovered
   point.  Everything at or below [anchor] (the max hot-log GC floor) is
   known complete and durable: GC only ever runs below PGMRPL <= VDL <=
   VCL of the pre-crash instance.  VDL is the last MTR-completion record
   on the walk.

   A record extends the walk iff its [prev_volume] is already covered —
   any missing intermediate record would be some fetched record's
   predecessor and stop the walk exactly there. *)
let compute_vcl ~anchor ~points ~pg_of records =
  let sorted =
    List.sort
      (fun (a : Log_record.t) (b : Log_record.t) -> Lsn.compare a.lsn b.lsn)
      (List.filter (fun (r : Log_record.t) -> Lsn.(r.lsn > anchor)) records)
  in
  let rec walk vcl vdl = function
    | [] -> (vcl, vdl)
    | (r : Log_record.t) :: rest ->
      if Lsn.(r.prev_volume <= vcl) && Lsn.(r.lsn <= points (pg_of r.block))
      then walk r.lsn (if r.mtr_end then r.lsn else vdl) rest
      else (vcl, vdl)
  in
  walk anchor anchor sorted

let epochs_for t group = Volume.epochs_for t.volume group

let send t ~dst msg =
  Simnet.Net.send t.net ~src:t.my_addr ~dst ~bytes:(Protocol.bytes msg) msg

let send_probes t =
  Pg_id.Tbl.iter
    (fun pg_id probe ->
      if probe.point = None then
        List.iter
          (fun (seg, addr) ->
            if not (Member_id.Tbl.mem probe.replies seg) then begin
              t.probes_sent <- t.probes_sent + 1;
              send t ~dst:addr
                (Protocol.Scl_probe
                   { req = 0; pg = pg_id; seg; epochs = epochs_for t probe.group })
            end)
          (Volume.roster probe.group))
    t.probes

let best_responder probe =
  Member_id.Tbl.fold
    (fun seg (scl, _) acc ->
      match acc with
      | Some (_, best_scl) when Lsn.(best_scl >= scl) -> acc
      | _ -> Some (seg, scl))
    probe.replies None

let send_fetches t =
  Pg_id.Tbl.iter
    (fun pg_id probe ->
      if probe.fetched = None then
        match best_responder probe with
        | None -> ()
        | Some (seg, _) -> (
          match
            List.find_opt
              (fun (m, _) -> Member_id.equal m seg)
              (Volume.roster probe.group)
          with
          | None -> ()
          | Some (_, addr) ->
            send t ~dst:addr
              (Protocol.Hydrate_pull
                 {
                   req = 0;
                   pg = pg_id;
                   from_seg = seg;
                   since = Lsn.none;
                   want_blocks = false;
                   epochs = epochs_for t probe.group;
                 })))
    t.probes

(* The group's recovered chain tail: the last surviving record of its
   chain, also used as the PGCL hint installed with the truncation. *)
let recovered_tail probe ~vcl =
  match probe.fetched with
  | None -> Lsn.none
  | Some f -> (
    let sorted =
      List.sort
        (fun (a : Log_record.t) (b : Log_record.t) -> Lsn.compare a.lsn b.lsn)
        f.f_records
    in
    let below =
      List.fold_left
        (fun acc (r : Log_record.t) ->
          if Lsn.(r.lsn <= vcl) then Lsn.max acc r.lsn else acc)
        Lsn.none sorted
    in
    if not (Lsn.is_none below) then below
    else match sorted with first :: _ -> first.prev_segment | [] -> f.f_scl)

let send_truncates t =
  Pg_id.Tbl.iter
    (fun pg_id probe ->
      List.iter
        (fun (seg, addr) ->
          if not (Member_id.Set.mem seg probe.truncate_acks) then
            send t ~dst:addr
              (Protocol.Truncate
                 {
                   pg = pg_id;
                   seg;
                   above = t.truncate_above;
                   upto = t.truncate_upto;
                   pgcl = recovered_tail probe ~vcl:t.truncate_above;
                   epochs = epochs_for t probe.group;
                 }))
        (Volume.roster probe.group))
    t.probes

let rule_read group = (Volume.rule group).Quorum_set.Rule.read
let rule_write group = (Volume.rule group).Quorum_set.Rule.write

let probe_quorum_met probe =
  let responders =
    Member_id.Tbl.fold
      (fun seg _ acc -> Member_id.Set.add seg acc)
      probe.replies Member_id.Set.empty
  in
  Quorum_set.satisfied (rule_read probe.group) responders

let all_points t =
  Pg_id.Tbl.fold (fun _ p acc -> acc && p.point <> None) t.probes true

let all_fetched t =
  Pg_id.Tbl.fold (fun _ p acc -> acc && p.fetched <> None) t.probes true

let all_truncated t =
  Pg_id.Tbl.fold
    (fun _ p acc ->
      acc && Quorum_set.satisfied (rule_write p.group) p.truncate_acks)
    t.probes true

let point_of t pg_id =
  match (Pg_id.Tbl.find t.probes pg_id).point with
  | Some p -> p
  | None -> Lsn.none

let all_records t =
  Pg_id.Tbl.fold
    (fun _ p acc ->
      match p.fetched with Some f -> f.f_records @ acc | None -> acc)
    t.probes []

let finish_compute t =
  let records = all_records t in
  (* The volume chain is known complete at or below every segment's GC
     floor; anchor the walk at the highest floor seen. *)
  let anchor =
    Pg_id.Tbl.fold
      (fun _ p acc ->
        match p.fetched with
        | Some f -> Lsn.max acc f.f_retained_from
        | None -> acc)
      t.probes Lsn.none
  in
  let vcl, vdl =
    compute_vcl ~anchor
      ~points:(fun pg_id -> point_of t pg_id)
      ~pg_of:(fun block -> (Volume.pg_of_block t.volume block).Volume.id)
      records
  in
  let highest =
    Pg_id.Tbl.fold
      (fun _ p acc ->
        let acc =
          Member_id.Tbl.fold
            (fun _ (_, highest) acc -> Lsn.max acc highest)
            p.replies acc
        in
        List.fold_left
          (fun acc (r : Log_record.t) -> Lsn.max acc r.lsn)
          acc
          (match p.fetched with Some f -> f.f_records | None -> []))
      t.probes vcl
  in
  t.truncate_above <- vcl;
  t.computed_vdl <- vdl;
  (* Headroom past the highest sighting absorbs in-flight writes we never
     observed (Figure 4's ragged edge). *)
  t.truncate_upto <- Lsn.add highest 1024;
  t.phase <- Truncating;
  send_truncates t

let survivors t =
  List.filter
    (fun (r : Log_record.t) -> Lsn.(r.lsn <= t.truncate_above))
    (all_records t)

let finish t =
  let vcl = t.truncate_above in
  let records = survivors t in
  (* The per-group chain tail is the last surviving record of that group's
     chain, derived from the fetched (best) segment: the max fetched LSN at
     or below VCL; if everything fetched is above VCL, the predecessor of
     the oldest fetched record; if nothing was fetched, the donor's SCL
     (its chain lies wholly below its GC floor <= VCL).  This matches the
     SCL every segment re-anchors to after applying the truncation. *)
  let pg_tails =
    Pg_id.Tbl.fold
      (fun pg_id p acc -> (pg_id, recovered_tail p ~vcl) :: acc)
      t.probes []
  in
  let block_tails = Block_id.Tbl.create 64 in
  let writers = ref Txn_id.Set.empty in
  let max_txn = ref (Txn_id.of_int 0) in
  List.iter
    (fun (r : Log_record.t) ->
      if Txn_id.compare r.txn !max_txn > 0 then max_txn := r.txn;
      match r.op with
      | Log_record.Put _ | Log_record.Delete _ ->
        writers := Txn_id.Set.add r.txn !writers;
        let prev =
          match Block_id.Tbl.find_opt block_tails r.block with
          | Some l -> l
          | None -> Lsn.none
        in
        if Lsn.(r.lsn > prev) then Block_id.Tbl.replace block_tails r.block r.lsn
      | Log_record.Commit | Log_record.Abort | Log_record.Noop -> ())
    records;
  (* Transaction outcomes come from the segments' durable status tables
     (union across fetched segments), filtered to at-or-below VCL: status
     records above the cut are annulled with the rest of the ragged edge. *)
  let status_tbl = Hashtbl.create 256 in
  Pg_id.Tbl.iter
    (fun _ p ->
      match p.fetched with
      | None -> ()
      | Some f ->
        List.iter
          (fun (txn, lsn, is_abort) ->
            if Txn_id.compare txn !max_txn > 0 then max_txn := txn;
            if Lsn.(lsn <= vcl) then
              match Hashtbl.find_opt status_tbl (Txn_id.to_int txn) with
              | Some (prev_lsn, _) when Lsn.(prev_lsn >= lsn) -> ()
              | _ -> Hashtbl.replace status_tbl (Txn_id.to_int txn) (lsn, is_abort))
          f.f_statuses)
    t.probes;
  let committed = ref [] in
  let aborted = ref [] in
  Hashtbl.iter
    (fun txn (lsn, is_abort) ->
      if is_abort then aborted := Txn_id.of_int txn :: !aborted
      else committed := (Txn_id.of_int txn, lsn) :: !committed)
    status_tbl;
  let decided =
    Txn_id.Set.union
      (Txn_id.Set.of_list (List.map fst !committed))
      (Txn_id.Set.of_list !aborted)
  in
  let interrupted = Txn_id.Set.elements (Txn_id.Set.diff !writers decided) in
  let scl_observations =
    Pg_id.Tbl.fold
      (fun pg_id p acc ->
        let tail =
          match List.assoc_opt pg_id pg_tails with
          | Some tl -> tl
          | None -> Lsn.none
        in
        Member_id.Tbl.fold
          (fun seg (scl, _) acc -> (pg_id, seg, Lsn.min scl tail) :: acc)
          p.replies acc)
      t.probes []
  in
  let outcome =
    {
      vcl;
      vdl = (if Lsn.is_none t.computed_vdl then vcl else t.computed_vdl);
      truncate_above = t.truncate_above;
      truncate_upto = t.truncate_upto;
      pg_tails;
      block_tails =
        Block_id.Tbl.fold (fun b l acc -> (b, l) :: acc) block_tails [];
      committed = !committed;
      aborted = !aborted;
      interrupted;
      max_txn_seen = !max_txn;
      scl_observations;
      records_examined = List.length records;
      probes_sent = t.probes_sent;
      duration = Time_ns.diff (Sim.now t.sim) t.started_at;
    }
  in
  t.phase <- Finished;
  t.result <- Some outcome;
  t.on_done (Ok outcome)

let step t =
  match t.phase with
  | Probing ->
    if all_points t then begin
      t.phase <- Fetching;
      send_fetches t
    end
  | Fetching -> if all_fetched t then finish_compute t
  | Truncating -> if all_truncated t then finish t
  | Finished -> ()

let on_message t msg ~from:_ =
  if t.phase <> Finished then
    match msg with
    | Protocol.Scl_reply { pg; seg; scl; highest; _ } -> (
      match Pg_id.Tbl.find_opt t.probes pg with
      | None -> ()
      | Some probe ->
        Member_id.Tbl.replace probe.replies seg (scl, highest);
        if probe.point = None && probe_quorum_met probe then
          probe.point <- Some (recovered_point
                                 ~scls:(Member_id.Tbl.fold
                                          (fun seg (scl, _) acc -> (seg, scl) :: acc)
                                          probe.replies []));
        step t)
    | Protocol.Hydrate_reply { pg; records; scl; retained_from; statuses; _ }
      -> (
      match Pg_id.Tbl.find_opt t.probes pg with
      | None -> ()
      | Some probe ->
        if probe.fetched = None && t.phase = Fetching then begin
          probe.fetched <-
            Some
              {
                f_records = records;
                f_scl = scl;
                f_retained_from = retained_from;
                f_statuses = statuses;
              };
          step t
        end)
    | Protocol.Truncate_ack { pg; seg } -> (
      match Pg_id.Tbl.find_opt t.probes pg with
      | None -> ()
      | Some probe ->
        probe.truncate_acks <- Member_id.Set.add seg probe.truncate_acks;
        step t)
    | _ -> ()

let start ~sim ~net ~my_addr ~volume ?(retry_interval = Time_ns.ms 50)
    ?(deadline = Time_ns.sec 30) ~on_done () =
  ignore (Volume.bump_volume_epoch volume : Epoch.t);
  let t =
    {
      sim;
      net;
      my_addr;
      volume;
      on_done;
      started_at = Sim.now sim;
      probes = Pg_id.Tbl.create 8;
      phase = Probing;
      probes_sent = 0;
      truncate_above = Lsn.none;
      truncate_upto = Lsn.none;
      computed_vdl = Lsn.none;
      result = None;
    }
  in
  List.iter
    (fun (g : Volume.pg) ->
      Pg_id.Tbl.add t.probes g.Volume.id
        {
          group = g;
          replies = Member_id.Tbl.create 8;
          point = None;
          fetched = None;
          truncate_acks = Member_id.Set.empty;
        })
    (Volume.pgs volume);
  send_probes t;
  (* Retry loop: re-send whatever the current phase is still missing. *)
  Sim.every sim ~interval:retry_interval (fun () ->
      if t.phase = Finished then false
      else if Time_ns.compare (Time_ns.diff (Sim.now sim) t.started_at) deadline > 0
      then begin
        t.phase <- Finished;
        t.on_done (Error "recovery timed out waiting for storage quorums");
        false
      end
      else begin
        (match t.phase with
        | Probing -> send_probes t
        | Fetching -> send_fetches t
        | Truncating -> send_truncates t
        | Finished -> ());
        true
      end);
  t
