(* Per-node bounded ring buffers, one recorder per cluster.  Recording
   draws no randomness and schedules no events, so an instrumented run is
   byte-identical to a bare one; while off every [note] is a no-op, hook
   points pay a single field read, and no buffer is allocated. *)

let min_depth = 16
let max_depth = 65536
let default_depth = 512

type ring = {
  role : Event.role;
  mutable buf : (int * Event.t) array; (* empty while recording is off *)
  mutable len : int;
  mutable head : int; (* next write position *)
  mutable evicted : int;
}

type t = {
  mutable depth : int; (* 0 = recording off *)
  rings : (int, ring) Hashtbl.t;
}

let create () = { depth = 0; rings = Hashtbl.create 16 }
let enabled t = t.depth > 0
let dummy = (0, Event.Started)

let enable t ~depth =
  if depth < min_depth || depth > max_depth then
    invalid_arg
      (Printf.sprintf "Recorder.Rings.enable: depth %d outside [%d, %d]" depth
         min_depth max_depth);
  if t.depth = 0 then begin
    t.depth <- depth;
    List.iter
      (fun (_, r) -> r.buf <- Array.make depth dummy)
      (Obs.Stable.sorted_bindings ~cmp:Int.compare t.rings)
  end

let fresh t role =
  {
    role;
    buf = (if t.depth > 0 then Array.make t.depth dummy else [||]);
    len = 0;
    head = 0;
    evicted = 0;
  }

let register t ~node ~role =
  if not (Hashtbl.mem t.rings node) then Hashtbl.replace t.rings node (fresh t role)

let ring_for t node =
  match Hashtbl.find_opt t.rings node with
  | Some r -> r
  | None ->
    let r = fresh t Event.Unknown in
    Hashtbl.replace t.rings node r;
    r

let note t ~node ~at ev =
  if t.depth > 0 then begin
    let r = ring_for t node in
    r.buf.(r.head) <- (at, ev);
    r.head <- (r.head + 1) mod t.depth;
    if r.len < t.depth then r.len <- r.len + 1 else r.evicted <- r.evicted + 1
  end

(* ------------------------------------------------------------ snapshots -- *)

type node_ring = {
  node : int;
  role : Event.role;
  depth : int;
  evicted : int;
  events : (int * Event.t) list; (* oldest first *)
}

type snapshot = { nodes : node_ring list }

let events_of cap r =
  let start = (r.head - r.len + cap) mod cap in
  List.init r.len (fun i -> r.buf.((start + i) mod cap))

let snapshot (t : t) =
  if t.depth = 0 then { nodes = [] }
  else
    let nodes =
      Obs.Stable.sorted_bindings ~cmp:Int.compare t.rings
      |> List.map (fun (node, (r : ring)) ->
             {
               node;
               role = r.role;
               depth = t.depth;
               evicted = r.evicted;
               events = events_of t.depth r;
             })
    in
    { nodes }
