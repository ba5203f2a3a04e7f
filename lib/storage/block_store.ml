open Wal

type version = { value : string option; txn : Txn_id.t; lsn : Lsn.t }

(* [stored_checksum] is the order-independent sum of [head_hash] over the
   block's keys, kept current by each update.  [stale] is set by [corrupt],
   whose mutation the sum deliberately does not follow; the next update then
   recomputes the block from scratch. *)
type entry = {
  keys : (string, version list) Hashtbl.t;
  mutable stored_checksum : int;
  mutable stale : bool;
}

type t = {
  table : entry Block_id.Tbl.t;
  mutable applied : Lsn.t;
  mutable nversions : int;
  mutable bytes : int;
  (* The keys GC has to look at: every key holding two or more versions is
     listed once, added when its chain grows from one version to two and
     pruned by the GC pass that finds it shorter.  Keys of a block that a
     snapshot load replaced stay listed until that pass.  Items at or above
     [nmulti] are garbage (aliases left behind by growth). *)
  mutable multi : (entry * string) array;
  mutable nmulti : int;
}

let create () =
  {
    table = Block_id.Tbl.create 64;
    applied = Lsn.none;
    nversions = 0;
    bytes = 0;
    multi = [||];
    nmulti = 0;
  }

let entry_of t block =
  match Block_id.Tbl.find_opt t.table block with
  | Some e -> e
  | None ->
    let e = { keys = Hashtbl.create 8; stored_checksum = 0; stale = false } in
    Block_id.Tbl.add t.table block e;
    e

let version_bytes key v =
  String.length key
  + (match v.value with Some s -> String.length s | None -> 0)
  + 24 (* txn + lsn + tag overhead *)

(* A key's contribution to the block checksum: a digest of its newest
   version. *)
let head_hash key v =
  let h = Simcore.Bits.fnv1a_string key in
  let h =
    match v.value with
    | Some s -> Simcore.Bits.fnv1a_add_string h s
    | None -> Simcore.Bits.fnv1a_add_int h (-1)
  in
  let h = Simcore.Bits.fnv1a_add_int h (Txn_id.to_int v.txn) in
  Simcore.Bits.fnv1a_add_int h (Lsn.to_int v.lsn)

(* Digest of the current (newest-version-per-key) contents.  Combining with
   an order-independent sum keeps it stable across hash-table iteration
   order. *)
let compute_checksum e =
  Hashtbl.fold
    (fun key versions acc ->
      match versions with [] -> acc | v :: _ -> acc + head_hash key v)
    e.keys 0

let rebaseline e =
  e.stored_checksum <- compute_checksum e;
  e.stale <- false

let list_multi t e key =
  let item = (e, key) in
  if t.nmulti = Array.length t.multi then begin
    let grown = Array.make (max 16 (2 * t.nmulti)) item in
    Array.blit t.multi 0 grown 0 t.nmulti;
    t.multi <- grown
  end;
  t.multi.(t.nmulti) <- item;
  t.nmulti <- t.nmulti + 1

(* O(1) in the block's size: the checksum moves by the old and new head
   digests instead of being recomputed. *)
let add_version t e key v =
  let prior = match Hashtbl.find_opt e.keys key with Some l -> l | None -> [] in
  Hashtbl.replace e.keys key (v :: prior);
  t.nversions <- t.nversions + 1;
  t.bytes <- t.bytes + version_bytes key v;
  (match prior with [ _ ] -> list_multi t e key | _ -> ());
  if e.stale then rebaseline e
  else
    let old = match prior with [] -> 0 | h :: _ -> head_hash key h in
    e.stored_checksum <- e.stored_checksum - old + head_hash key v

let apply t (r : Log_record.t) =
  (match r.op with
  | Put { key; value } ->
    add_version t (entry_of t r.block) key
      { value = Some value; txn = r.txn; lsn = r.lsn }
  | Delete { key } ->
    add_version t (entry_of t r.block) key
      { value = None; txn = r.txn; lsn = r.lsn }
  | Commit | Abort | Noop -> ());
  if Lsn.(r.lsn > t.applied) then t.applied <- r.lsn

let applied_upto t = t.applied

let versions t block ~key =
  match Block_id.Tbl.find_opt t.table block with
  | None -> []
  | Some e -> ( match Hashtbl.find_opt e.keys key with Some l -> l | None -> [])

let read_at t block ~key ~as_of ~exclude =
  let rec pick = function
    | [] -> None
    | v :: rest ->
      if Lsn.(v.lsn <= as_of) && not (Txn_id.Set.mem v.txn exclude) then Some v
      else pick rest
  in
  pick (versions t block ~key)

let block_snapshot t block =
  match Block_id.Tbl.find_opt t.table block with
  | None -> []
  | Some e -> Hashtbl.fold (fun key vs acc -> (key, vs) :: acc) e.keys []

(* Chains are newest first with strictly descending LSNs, so the versions
   at or below [as_of] are a suffix: drop the newer prefix and share the
   rest. *)
let rec at_or_below as_of = function
  | v :: rest when Lsn.(v.lsn > as_of) -> at_or_below as_of rest
  | vs -> vs

let block_as_of t block ~as_of =
  match Block_id.Tbl.find_opt t.table block with
  | None -> []
  | Some e ->
    Hashtbl.fold
      (fun key vs acc ->
        match at_or_below as_of vs with [] -> acc | vs -> (key, vs) :: acc)
      e.keys []

let load_snapshot t block snapshot =
  (* Remove existing accounting for the block, then install.  Emptying the
     old entry lets GC prune any of its keys that are still listed. *)
  (match Block_id.Tbl.find_opt t.table block with
  | None -> ()
  | Some e ->
    Hashtbl.iter
      (fun key vs ->
        List.iter
          (fun v ->
            t.nversions <- t.nversions - 1;
            t.bytes <- t.bytes - version_bytes key v)
          vs)
      e.keys;
    Hashtbl.reset e.keys;
    Block_id.Tbl.remove t.table block);
  let e = entry_of t block in
  List.iter
    (fun (key, vs) ->
      Hashtbl.replace e.keys key vs;
      (match vs with _ :: _ :: _ -> list_multi t e key | _ -> ());
      List.iter
        (fun v ->
          t.nversions <- t.nversions + 1;
          t.bytes <- t.bytes + version_bytes key v;
          if Lsn.(v.lsn > t.applied) then t.applied <- v.lsn)
        vs)
    snapshot;
  rebaseline e

let rollback_above t bound =
  let dropped = ref 0 in
  (* Relist from scratch: a chain cut back to one version must leave the
     list, so that a write growing it to two again lists it only once. *)
  t.nmulti <- 0;
  Block_id.Tbl.iter
    (fun _ e ->
      let changed = ref false in
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) e.keys [] in
      List.iter
        (fun key ->
          let vs = Hashtbl.find e.keys key in
          let keep, drop =
            List.partition (fun v -> Lsn.(v.lsn <= bound)) vs
          in
          if drop <> [] then begin
            changed := true;
            List.iter
              (fun v ->
                incr dropped;
                t.nversions <- t.nversions - 1;
                t.bytes <- t.bytes - version_bytes key v)
              drop;
            Hashtbl.replace e.keys key keep
          end;
          match keep with _ :: _ :: _ -> list_multi t e key | _ -> ())
        keys;
      if !changed then rebaseline e)
    t.table;
  if Lsn.(t.applied > bound) then t.applied <- bound;
  !dropped

(* Versions older than the newest *committed* version at or below the floor
   are unreachable by any legal read view.  Versions of transactions whose
   outcome this segment does not know are kept (conservative: an in-flight
   or elsewhere-committed transaction must not lose its data, and an aborted
   one must not anchor the cut).  Returns the chain with the collected tail
   cut off, physically equal to [chain] when nothing is collected. *)
let rec collect t key ~floor ~is_committed chain =
  match chain with
  | [] -> chain
  | v :: rest ->
    if Lsn.(v.lsn <= floor) && is_committed v.txn then begin
      match rest with
      | [] -> chain
      | _ :: _ ->
        List.iter
          (fun old ->
            t.nversions <- t.nversions - 1;
            t.bytes <- t.bytes - version_bytes key old)
          rest;
        [ v ]
    end
    else
      let rest' = collect t key ~floor ~is_committed rest in
      if rest' == rest then chain else v :: rest'

(* A chain of one version has nothing older than its head to collect, so
   only listed keys are visited.  GC never removes a head, so the checksum
   stays right; only a stale (corrupted) block is recomputed, exactly when
   a collection touches it. *)
let gc t ~keep_at_or_above ~is_committed =
  let before = t.nversions in
  let kept = ref 0 in
  for i = 0 to t.nmulti - 1 do
    let ((e, key) as item) = t.multi.(i) in
    let chain =
      match Hashtbl.find_opt e.keys key with Some l -> l | None -> []
    in
    let chain' = collect t key ~floor:keep_at_or_above ~is_committed chain in
    if chain' != chain then begin
      Hashtbl.replace e.keys key chain';
      if e.stale then rebaseline e
    end;
    match chain' with
    | _ :: _ :: _ ->
      t.multi.(!kept) <- item;
      incr kept
    | _ -> ()
  done;
  t.nmulti <- !kept;
  before - t.nversions

let blocks t = Block_id.Tbl.fold (fun b _ acc -> b :: acc) t.table []
let version_count t = t.nversions
let bytes_used t = t.bytes

let checksum t block =
  match Block_id.Tbl.find_opt t.table block with
  | None -> 0
  | Some e -> e.stored_checksum

let corrupt t block =
  match Block_id.Tbl.find_opt t.table block with
  | None -> false
  | Some e ->
    let victim =
      Hashtbl.fold
        (fun key vs acc ->
          match (acc, vs) with
          | Some _, _ -> acc
          | None, { value = Some _; _ } :: _ -> Some key
          | None, _ -> None)
        e.keys None
    in
    (match victim with
    | None -> false
    | Some key ->
      (match Hashtbl.find e.keys key with
      | ({ value = Some s; _ } as v) :: rest ->
        let flipped =
          if String.length s = 0 then "\x01"
          else begin
            let b = Bytes.of_string s in
            Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
            Bytes.to_string b
          end
        in
        (* Mutate the data but deliberately leave stored_checksum stale. *)
        Hashtbl.replace e.keys key ({ v with value = Some flipped } :: rest);
        e.stale <- true;
        true
      | _ -> false))

let verify t block =
  match Block_id.Tbl.find_opt t.table block with
  | None -> true
  | Some e -> compute_checksum e = e.stored_checksum
