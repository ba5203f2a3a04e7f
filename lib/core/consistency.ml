open Wal
open Quorum
module Pg_id = Storage.Pg_id

(* The write quorum is kept compiled (Quorum_set's member-index masks)
   next to a slot array aligned with its index, so an ack tests the quorum
   on an int mask: the ack path builds no set and allocates nothing. *)
type pg_state = {
  mutable write_quorum : Quorum_set.compiled;
  mutable slot_scls : Lsn.t array;
      (* slot i: SCL of the write quorum's i-th member; mirrors [scls] *)
  scls : Lsn.t Member_id.Tbl.t; (* every segment heard from; the truth *)
  chain : Lsn.t Queue.t; (* submitted, not yet durable, in order *)
  mutable pgcl : Lsn.t;
}

type volume_entry = { lsn : Lsn.t; pg : Pg_id.t; mtr_end : bool }

type t = {
  pgs : pg_state Pg_id.Tbl.t;
  volume_chain : volume_entry Queue.t; (* submitted, not yet <= VCL *)
  mutable last_submitted : Lsn.t;
  mutable vcl : Lsn.t;
  mutable vdl : Lsn.t;
  mutable vcl_watchers : (Lsn.t -> unit) list;
  mutable vdl_watchers : (Lsn.t -> unit) list;
  mutable durable_watchers : (Pg_id.t -> Lsn.t -> unit) list;
}

let create () =
  {
    pgs = Pg_id.Tbl.create 8;
    volume_chain = Queue.create ();
    last_submitted = Lsn.none;
    vcl = Lsn.none;
    vdl = Lsn.none;
    vcl_watchers = [];
    vdl_watchers = [];
    durable_watchers = [];
  }

let scl_in scls seg =
  match Member_id.Tbl.find scls seg with
  | scl -> scl
  | exception Not_found -> Lsn.none

(* The slot array for compiled quorum [c], filled from the SCL table so
   members that acked under an earlier quorum keep their standing. *)
let slots_for scls c =
  Array.init (Quorum_set.size c) (fun i -> scl_in scls (Quorum_set.member c i))

let set_write_quorum t pg q =
  let c = Quorum_set.compile q in
  match Pg_id.Tbl.find_opt t.pgs pg with
  | Some st ->
    st.write_quorum <- c;
    st.slot_scls <- slots_for st.scls c
  | None ->
    let scls = Member_id.Tbl.create 8 in
    Pg_id.Tbl.add t.pgs pg
      {
        write_quorum = c;
        slot_scls = slots_for scls c;
        scls;
        chain = Queue.create ();
        pgcl = Lsn.none;
      }

let register_pg t pg ~write_quorum = set_write_quorum t pg write_quorum

let pg_state t pg =
  match Pg_id.Tbl.find t.pgs pg with
  | st -> st
  | exception Not_found -> invalid_arg "Consistency: unknown protection group"

let note_submitted t ~pg ~lsn ~mtr_end =
  if Lsn.(lsn <= t.last_submitted) then
    invalid_arg "Consistency.note_submitted: LSNs must be submitted in order";
  t.last_submitted <- lsn;
  let st = pg_state t pg in
  Queue.push lsn st.chain;
  Queue.push { lsn; pg; mtr_end } t.volume_chain

(* Watchers are called through top-level loops, not [List.iter] closures:
   these run per record made durable. *)
let rec fire_durable pg lsn = function
  | [] -> ()
  | f :: rest ->
    f pg lsn;
    fire_durable pg lsn rest

let rec fire lsn = function
  | [] -> ()
  | f :: rest ->
    f lsn;
    fire lsn rest

(* Mask of the write-quorum members whose SCL covers [lsn]. *)
let rec covering_mask slots lsn i acc =
  if i < 0 then acc
  else
    covering_mask slots lsn (i - 1)
      (if Lsn.(slots.(i) >= lsn) then acc lor (1 lsl i) else acc)

(* Advance the group's PGCL: pop chain heads while the segments covering
   them satisfy the write quorum.  SCL coverage is antitone in LSN, so a
   failing head stops the scan. *)
let rec advance_pgcl t pg st =
  if not (Queue.is_empty st.chain) then begin
    let lsn = Queue.peek st.chain in
    let covering =
      covering_mask st.slot_scls lsn (Array.length st.slot_scls - 1) 0
    in
    if Quorum_set.satisfied_mask st.write_quorum covering then begin
      ignore (Queue.pop st.chain : Lsn.t);
      st.pgcl <- lsn;
      fire_durable pg lsn t.durable_watchers;
      advance_pgcl t pg st
    end
  end

(* Pop the volume chain while each head is covered by its own group's
   PGCL ("no pending writes preventing PGCL from advancing"), raising VCL
   as it goes; returns the new VDL candidate, starting from [vdl]. *)
let rec pop_covered t vdl =
  if Queue.is_empty t.volume_chain then vdl
  else begin
    let entry = Queue.peek t.volume_chain in
    if Lsn.(entry.lsn <= (pg_state t entry.pg).pgcl) then begin
      ignore (Queue.pop t.volume_chain : volume_entry);
      if Lsn.(entry.lsn > t.vcl) then t.vcl <- entry.lsn;
      pop_covered t (if entry.mtr_end then entry.lsn else vdl)
    end
    else vdl
  end

let advance_vcl t =
  let before = t.vcl in
  let vdl = pop_covered t t.vdl in
  if Lsn.(t.vcl > before) then fire t.vcl t.vcl_watchers;
  if Lsn.(vdl > t.vdl) then begin
    t.vdl <- vdl;
    fire t.vdl t.vdl_watchers
  end

let note_ack t ~pg ~seg ~scl =
  let st = pg_state t pg in
  (* Acks can be reordered in flight; a segment's SCL is monotone, so a
     lower value is always stale news and must not regress the tracker. *)
  if Lsn.(scl > scl_in st.scls seg) then begin
    Perf.Probe.start Perf.Probe.Consistency_advance;
    Member_id.Tbl.replace st.scls seg scl;
    let slot = Quorum_set.position st.write_quorum seg in
    if slot >= 0 then st.slot_scls.(slot) <- scl;
    let before = st.pgcl in
    advance_pgcl t pg st;
    if Lsn.(st.pgcl > before) then advance_vcl t;
    Perf.Probe.stop Perf.Probe.Consistency_advance
  end

let segment_scl t ~pg ~seg = scl_in (pg_state t pg).scls seg
let pgcl t pg = (pg_state t pg).pgcl
let vcl t = t.vcl
let vdl t = t.vdl

let on_vcl_advance t f = t.vcl_watchers <- f :: t.vcl_watchers
let on_vdl_advance t f = t.vdl_watchers <- f :: t.vdl_watchers
let on_record_durable t f = t.durable_watchers <- f :: t.durable_watchers
let pending_submissions t = Queue.length t.volume_chain

let restore t ~vcl ~vdl ~pg_points =
  Queue.clear t.volume_chain;
  t.last_submitted <- Lsn.max t.last_submitted vcl;
  t.vcl <- vcl;
  t.vdl <- vdl;
  List.iter
    (fun (pg, point) ->
      match Pg_id.Tbl.find_opt t.pgs pg with
      | None -> ()
      | Some st ->
        Queue.clear st.chain;
        st.pgcl <- point)
    pg_points
