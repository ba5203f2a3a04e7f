type truncation = { above : Lsn.t; upto : Lsn.t }

(* An LSN-ordered queue of non-negative ints that exploits arrival order:
   records nearly always reach a segment in LSN order, so an LSN above
   every earlier one is appended to a sorted FIFO ([run]) and popped from
   its front in O(1); the few that arrive late go to a binary min-heap
   ([late]).  Both are int arrays, so pushes need no comparison closure
   and no write barrier. *)
module Lsn_queue = struct
  type t = {
    mutable run : int array;  (* ascending, in [run.(head .. tail - 1)] *)
    mutable head : int;
    mutable tail : int;
    mutable late : int array;  (* min-heap in [late.(0 .. late_len - 1)] *)
    mutable late_len : int;
  }

  let create () = { run = [||]; head = 0; tail = 0; late = [||]; late_len = 0 }

  (* [h] is annotated: left polymorphic, the compares would go through
     [caml_lessthan] and the stores through the write barrier. *)
  let rec sift_up (h : int array) i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      let x = h.(i) in
      if x < h.(parent) then begin
        h.(i) <- h.(parent);
        h.(parent) <- x;
        sift_up h parent
      end
    end

  let rec sift_down (h : int array) len i =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && h.(l + 1) < h.(l) then l + 1 else l in
      let x = h.(i) in
      if h.(c) < x then begin
        h.(i) <- h.(c);
        h.(c) <- x;
        sift_down h len c
      end
    end

  let push_late q x =
    if q.late_len = Array.length q.late then begin
      let grown = Array.make (max 16 (2 * q.late_len)) 0 in
      Array.blit q.late 0 grown 0 q.late_len;
      q.late <- grown
    end
    [@alloc_ok "amortized backing-array doubling; steady-state pushes reuse it"];
    q.late.(q.late_len) <- x;
    q.late_len <- q.late_len + 1;
    sift_up q.late (q.late_len - 1)

  (* When the run array is full, slide the live part down if that frees
     at least half of it, else double it. *)
  let push_run q x =
    if q.tail = Array.length q.run then begin
      let live = q.tail - q.head in
      let dst =
        if q.run <> [||] && 2 * live <= Array.length q.run then q.run
        else Array.make (max 16 (2 * live)) 0
      in
      Array.blit q.run q.head dst 0 live;
      q.run <- dst;
      q.head <- 0;
      q.tail <- live
    end
    [@alloc_ok "amortized backing-array doubling; steady-state pushes reuse it"];
    q.run.(q.tail) <- x;
    q.tail <- q.tail + 1

  let push q x =
    if q.tail = q.head || x > q.run.(q.tail - 1) then push_run q x
    else push_late q x

  (* Remove and return an element [<= bound], or -1 if there is none. *)
  let pop_at_or_below q bound =
    if q.head < q.tail && q.run.(q.head) <= bound then begin
      let x = q.run.(q.head) in
      q.head <- q.head + 1;
      x
    end
    else if q.late_len > 0 && q.late.(0) <= bound then begin
      let x = q.late.(0) in
      q.late_len <- q.late_len - 1;
      q.late.(0) <- q.late.(q.late_len);
      sift_down q.late q.late_len 0;
      x
    end
    else -1
end

type t = {
  records : (int, Log_record.t) Hashtbl.t; (* keyed by LSN *)
  by_prev : (int, Log_record.t) Hashtbl.t; (* pending, keyed by prev_segment *)
  mutable scl : Lsn.t;
  mutable highest : Lsn.t;
  mutable truncations : truncation list;
  mutable bytes : int;
  mutable dropped_upto : Lsn.t; (* GC floor: records at/below were dropped *)
  by_lsn : Lsn_queue.t;
      (* The LSN of every stored record, so [drop_below] pops only what it
         drops.  Deletion is lazy: an annulled record's LSN stays until
         popped, and popping skips LSNs no longer stored. *)
}

(* All three results are constant constructors: [insert] runs for every
   record a storage node receives, and an [Accepted of Lsn.t] payload would
   allocate a block per accepted record just to carry what [scl] already
   exposes. *)
type insert_result = Accepted | Duplicate | Annulled

let create () =
  {
    records = Hashtbl.create 256;
    by_prev = Hashtbl.create 16;
    scl = Lsn.none;
    highest = Lsn.none;
    truncations = [];
    bytes = 0;
    dropped_upto = Lsn.none;
    by_lsn = Lsn_queue.create ();
  }

let create_anchored anchor =
  let t = create () in
  t.scl <- anchor;
  t.highest <- anchor;
  t.dropped_upto <- anchor;
  t

let scl t = t.scl
let highest_received t = t.highest
let dropped_upto t = t.dropped_upto
let contains t lsn = Hashtbl.mem t.records (Lsn.to_int lsn)
let find t lsn = Hashtbl.find_opt t.records (Lsn.to_int lsn)
let record_count t = Hashtbl.length t.records
let bytes_stored t = t.bytes

(* Top-level (not a closure capturing [lsn]): this check runs on every
   insert, i.e. per received record. *)
let rec lsn_annulled lsn = function
  | [] -> false
  | { above; upto } :: rest ->
    (Lsn.(lsn > above) && Lsn.(lsn <= upto)) || lsn_annulled lsn rest

let is_annulled t lsn = lsn_annulled lsn t.truncations

(* Chase the chain forward through pending records starting at the current
   SCL; each pending record whose prev_segment equals the chain tail extends
   the gapless prefix.  Exception-based lookup: [find_opt] would box a
   [Some] per chained record. *)
let rec advance t =
  match Hashtbl.find t.by_prev (Lsn.to_int t.scl) with
  | exception Not_found -> ()
  | r ->
    Hashtbl.remove t.by_prev (Lsn.to_int t.scl);
    t.scl <- r.Log_record.lsn;
    advance t

let store t (r : Log_record.t) =
  Hashtbl.replace t.records (Lsn.to_int r.lsn) r;
  Lsn_queue.push t.by_lsn (Lsn.to_int r.lsn);
  t.bytes <- t.bytes + r.size_bytes

let insert t (r : Log_record.t) =
  if contains t r.lsn then Duplicate
  else if is_annulled t r.lsn then Annulled
  else if Lsn.(r.lsn <= t.scl) then
    (* Chain position already passed (e.g. re-gossiped after truncation
       rebuild); store for reads but the SCL is unaffected. *)
    begin
      store t r;
      Accepted
    end
  else begin
    store t r;
    Hashtbl.replace t.by_prev (Lsn.to_int r.prev_segment) r;
    if Lsn.(r.lsn > t.highest) then t.highest <- r.lsn;
    advance t;
    Accepted
  end

let pending_count t = Hashtbl.length t.by_prev

let chain_to_list t =
  (* Walk backwards from SCL via prev_segment links, then reverse. *)
  let rec walk lsn acc =
    if Lsn.is_none lsn then acc
    else
      match find t lsn with
      | None -> acc (* anchored segment: chain known-complete below anchor *)
      | Some r -> walk r.Log_record.prev_segment (r :: acc)
  in
  walk t.scl []

let chained_records_above t lsn =
  let rec walk cur acc =
    if Lsn.is_none cur || Lsn.(cur <= lsn) then acc
    else
      match find t cur with
      | None -> acc
      | Some r -> walk r.Log_record.prev_segment (r :: acc)
  in
  walk t.scl []

let fold_chain t ~init ~f = List.fold_left f init (chain_to_list t)

let drop_below t ~upto =
  let rec pop dropped =
    match Lsn_queue.pop_at_or_below t.by_lsn (Lsn.to_int upto) with
    | -1 -> dropped
    | lsn -> (
      match Hashtbl.find t.records lsn with
      | exception Not_found -> pop dropped
      | (r : Log_record.t) ->
        Hashtbl.remove t.records lsn;
        t.bytes <- t.bytes - r.size_bytes;
        if Lsn.(r.lsn > t.dropped_upto) then t.dropped_upto <- r.lsn;
        pop (dropped + 1))
  in
  pop 0

let annul_range t ~above ~upto =
  if Lsn.(upto < above) then invalid_arg "Hot_log.annul_range: upto < above";
  t.truncations <- { above; upto } :: t.truncations;
  let doomed =
    Hashtbl.fold
      (fun lsn_int r acc ->
        let lsn = Lsn.of_int lsn_int in
        if Lsn.(lsn > above) && Lsn.(lsn <= upto) then r :: acc else acc)
      t.records []
  in
  List.iter
    (fun (r : Log_record.t) ->
      Hashtbl.remove t.records (Lsn.to_int r.lsn);
      t.bytes <- t.bytes - r.size_bytes)
    doomed;
  (* Rebuild the pending index and re-anchor the chain: if chained records
     were annulled, the new tail is the predecessor of the oldest annulled
     chained record (an actual record LSN, which keeps segment chains
     linkable after recovery). *)
  Hashtbl.reset t.by_prev;
  if Lsn.(t.scl > above) then begin
    let new_tail =
      List.fold_left
        (fun acc (r : Log_record.t) ->
          if Lsn.(r.lsn <= t.scl) then
            match acc with
            | Some (best : Log_record.t) when Lsn.(best.lsn <= r.lsn) -> acc
            | _ -> Some r
          else acc)
        None doomed
    in
    match new_tail with
    | Some oldest_chained -> t.scl <- oldest_chained.prev_segment
    | None -> t.scl <- above
  end;
  t.highest <- t.scl;
  Hashtbl.iter
    (fun lsn_int r ->
      let lsn = Lsn.of_int lsn_int in
      if Lsn.(lsn > t.scl) then begin
        Hashtbl.replace t.by_prev (Lsn.to_int r.Log_record.prev_segment) r;
        if Lsn.(lsn > t.highest) then t.highest <- lsn
      end)
    t.records;
  advance t;
  List.length doomed
