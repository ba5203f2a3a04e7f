open Wal

(* Cached blocks form an intrusive doubly-linked LRU list through mutable
   [prev]/[next] links around a sentinel (the TigerBeetle static-allocation
   idiom the sim pool uses): [sentinel.next] is the coldest block,
   [sentinel.prev] the hottest.  A touch relinks in place and allocates
   nothing. *)
type cached_block = {
  block : Block_id.t;
  keys : (string, Storage.Block_store.version list) Hashtbl.t;
  mutable last_lsn : Lsn.t;
  (* A block created by a blind write holds only the keys written since it
     entered the cache; only a storage image makes it authoritative for
     absent keys. *)
  mutable complete : bool;
  mutable prev : cached_block;
  mutable next : cached_block;
}

type stats = { hits : int; misses : int; evictions : int; eviction_blocked : int }

type t = {
  capacity : int;
  table : cached_block Block_id.Tbl.t;
  lru : cached_block;  (* sentinel: never in [table], its [block] unused *)
  mutable dirty_end : cached_block;
      (* Every block colder than this one was dirty at [dirty_vdl] (the
         sentinel: the whole list was).  Eviction resumes its walk here
         while VDL stays put, so a bulk load of dirty blocks costs O(1)
         per apply instead of a rescan of the dirty prefix. *)
  mutable dirty_vdl : Lsn.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable eviction_blocked : int;
}

(* A block linked only to itself, ready for [link_hottest]. *)
let detached block keys =
  let rec b =
    { block; keys; last_lsn = Lsn.none; complete = false; prev = b; next = b }
  in
  b

let create ~capacity =
  if capacity <= 0 then invalid_arg "Buffer_cache.create: capacity";
  let lru = detached (Block_id.of_int 0) (Hashtbl.create 1) in
  {
    capacity;
    table = Block_id.Tbl.create capacity;
    lru;
    dirty_end = lru;
    dirty_vdl = Lsn.none;
    hits = 0;
    misses = 0;
    evictions = 0;
    eviction_blocked = 0;
  }

(* Both relinks keep [dirty_end] valid: an unlinked block hands the mark to
   its hotter neighbour, and a block linked hottest takes the mark from the
   sentinel, since it was not checked. *)
let unlink t entry =
  if entry == t.dirty_end then t.dirty_end <- entry.next;
  entry.prev.next <- entry.next;
  entry.next.prev <- entry.prev

let link_hottest t entry =
  let hottest = t.lru.prev in
  entry.prev <- hottest;
  entry.next <- t.lru;
  hottest.next <- entry;
  t.lru.prev <- entry;
  if t.dirty_end == t.lru then t.dirty_end <- entry

(* Mark [entry] most recently used. *)
let touch t entry =
  unlink t entry;
  link_hottest t entry

let contains t block = Block_id.Tbl.mem t.table block

type lookup =
  | Hit of Storage.Block_store.version list
  | Partial of Storage.Block_store.version list
  | Miss

let read t block ~key =
  match Block_id.Tbl.find_opt t.table block with
  | None ->
    t.misses <- t.misses + 1;
    Miss
  | Some entry ->
    touch t entry;
    let chain =
      match Hashtbl.find_opt entry.keys key with Some l -> l | None -> []
    in
    if entry.complete then begin
      t.hits <- t.hits + 1;
      Hit chain
    end
    else Partial chain

(* Evict LRU blocks whose redo is durable (last_lsn <= vdl) until at
   capacity, walking from [entry] towards the hot end.  Dirty blocks are
   skipped; if everything over capacity is dirty we stay oversized — the
   WAL rule wins over the memory target.  Dirty blocks stay dirty while
   [vdl] is fixed (a block's last_lsn only grows), so the walk records
   where it stopped in [dirty_end] and never restarts from the cold end
   until VDL moves. *)
let rec evict_from t entry ~vdl =
  if Block_id.Tbl.length t.table > t.capacity then
    if entry == t.lru then begin
      t.dirty_end <- t.lru;
      t.eviction_blocked <- t.eviction_blocked + 1
    end
    else if Lsn.(entry.last_lsn > vdl) then evict_from t entry.next ~vdl
    else begin
      let next = entry.next in
      unlink t entry;
      Block_id.Tbl.remove t.table entry.block;
      t.evictions <- t.evictions + 1;
      evict_from t next ~vdl
    end
  else t.dirty_end <- entry

let evict_pressure t ~vdl =
  if not (Lsn.equal vdl t.dirty_vdl) then begin
    t.dirty_vdl <- vdl;
    t.dirty_end <- t.lru.next
  end;
  evict_from t t.dirty_end ~vdl

let entry_of t block =
  match Block_id.Tbl.find_opt t.table block with
  | Some e -> e
  | None ->
    let e = detached block (Hashtbl.create 8) in
    link_hottest t e;
    Block_id.Tbl.add t.table block e;
    e

let apply_to_entry t entry (r : Log_record.t) =
  (match r.op with
  | Put { key; value } ->
    let prior =
      match Hashtbl.find_opt entry.keys key with Some l -> l | None -> []
    in
    Hashtbl.replace entry.keys key
      ({ Storage.Block_store.value = Some value; txn = r.txn; lsn = r.lsn }
      :: prior)
  | Delete { key } ->
    let prior =
      match Hashtbl.find_opt entry.keys key with Some l -> l | None -> []
    in
    Hashtbl.replace entry.keys key
      ({ Storage.Block_store.value = None; txn = r.txn; lsn = r.lsn } :: prior)
  | Commit | Abort | Noop -> ());
  if Lsn.(r.lsn > entry.last_lsn) then entry.last_lsn <- r.lsn;
  touch t entry

let apply t r ~vdl =
  let entry = entry_of t r.Log_record.block in
  apply_to_entry t entry r;
  evict_pressure t ~vdl

let apply_if_present t r ~vdl =
  match Block_id.Tbl.find_opt t.table r.Log_record.block with
  | None -> false
  | Some entry ->
    apply_to_entry t entry r;
    evict_pressure t ~vdl;
    true

let note_partial_hit t = t.hits <- t.hits + 1

let install t (img : Storage.Protocol.block_image) ~vdl =
  let entry = entry_of t img.image_block in
  entry.complete <- true;
  List.iter
    (fun (key, versions) ->
      (* Merge: keep whichever chain is longer/newer.  Locally written
         versions above the image's as_of must not be lost. *)
      let local =
        match Hashtbl.find_opt entry.keys key with Some l -> l | None -> []
      in
      let merged =
        let newer =
          List.filter
            (fun (v : Storage.Block_store.version) ->
              Lsn.(v.lsn > img.image_as_of))
            local
        in
        newer @ versions
      in
      Hashtbl.replace entry.keys key merged;
      List.iter
        (fun (v : Storage.Block_store.version) ->
          if Lsn.(v.lsn > entry.last_lsn) then entry.last_lsn <- v.lsn)
        merged)
    img.image_entries;
  touch t entry;
  evict_pressure t ~vdl

let last_modified t block =
  match Block_id.Tbl.find_opt t.table block with
  | None -> None
  | Some e -> Some e.last_lsn

let size t = Block_id.Tbl.length t.table
let capacity t = t.capacity

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    eviction_blocked = t.eviction_blocked;
  }

let drop_all t =
  Block_id.Tbl.reset t.table;
  t.lru.prev <- t.lru;
  t.lru.next <- t.lru;
  t.dirty_end <- t.lru
