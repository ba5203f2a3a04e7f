type stage =
  | Lsn_allocated
  | Boxcar_flushed
  | Net_sent
  | Node_acked
  | Pgcl_advanced
  | Vcl_advanced
  | Vdl_advanced
  | Commit_acked

let n_stages = 8
let n = n_stages

let stage_index = function
  | Lsn_allocated -> 0
  | Boxcar_flushed -> 1
  | Net_sent -> 2
  | Node_acked -> 3
  | Pgcl_advanced -> 4
  | Vcl_advanced -> 5
  | Vdl_advanced -> 6
  | Commit_acked -> 7

let stage_of_index = function
  | 0 -> Lsn_allocated
  | 1 -> Boxcar_flushed
  | 2 -> Net_sent
  | 3 -> Node_acked
  | 4 -> Pgcl_advanced
  | 5 -> Vcl_advanced
  | 6 -> Vdl_advanced
  | 7 -> Commit_acked
  | i -> invalid_arg (Printf.sprintf "Obs.Commit_path.stage_of_index: %d" i)

let stage_name = function
  | Lsn_allocated -> "lsn_allocated"
  | Boxcar_flushed -> "boxcar_flushed"
  | Net_sent -> "net_sent"
  | Node_acked -> "node_acked"
  | Pgcl_advanced -> "pgcl_advanced"
  | Vcl_advanced -> "vcl_advanced"
  | Vdl_advanced -> "vdl_advanced"
  | Commit_acked -> "commit_acked"

type t = {
  registry : Registry.t;
  capacity : int;
  (* lsn -> (owning pg, per-stage time); -1 = unknown / unset *)
  timelines : (int, int ref * int array) Hashtbl.t;
  order : int Queue.t; (* allocation order, for eviction *)
  hists : Simcore.Histogram.t option array; (* (from * n + to) -> histogram *)
}

let create ?(capacity = 16384) ~registry () =
  if capacity <= 0 then invalid_arg "Obs.Commit_path.create: capacity";
  {
    registry;
    capacity;
    timelines = Hashtbl.create 1024;
    order = Queue.create ();
    hists = Array.make (n * n) None;
  }

let stage_label a b = stage_name a ^ "\xe2\x86\x92" ^ stage_name b

let hist_for t ~from ~upto =
  let idx = (from * n) + upto in
  match t.hists.(idx) with
  | Some h -> h
  | None ->
    let label = stage_label (stage_of_index from) (stage_of_index upto) in
    let h =
      Registry.histogram t.registry ~labels:[ ("stage", label) ] "commit_stage_ns"
    in
    t.hists.(idx) <- Some h;
    h

let record_pair t ~from ~upto span =
  Simcore.Histogram.record (hist_for t ~from ~upto) span

(* The marquee decomposition pairs, recorded even when intermediate stages
   were observed in between. *)
let marquee =
  [
    (stage_index Boxcar_flushed, stage_index Node_acked);
    (stage_index Vcl_advanced, stage_index Commit_acked);
  ]

let evict_beyond_capacity t =
  while Hashtbl.length t.timelines > t.capacity do
    match Queue.take_opt t.order with
    | None -> Hashtbl.reset t.timelines (* unreachable: order covers timelines *)
    | Some lsn -> Hashtbl.remove t.timelines lsn
  done

let mark t ~at ~lsn ?(pg = -1) stage =
  let idx = stage_index stage in
  match Hashtbl.find_opt t.timelines lsn with
  | None ->
    if idx = 0 then begin
      let tl = Array.make n (-1) in
      tl.(0) <- at;
      Hashtbl.replace t.timelines lsn (ref pg, tl);
      Queue.push lsn t.order;
      evict_beyond_capacity t
    end
  | Some (pg_ref, tl) ->
    if pg >= 0 && !pg_ref < 0 then pg_ref := pg;
    if tl.(idx) < 0 then begin
      tl.(idx) <- at;
      let rec prev i = if i < 0 then -1 else if tl.(i) >= 0 then i else prev (i - 1) in
      let p = prev (idx - 1) in
      if p >= 0 then record_pair t ~from:p ~upto:idx (at - tl.(p));
      List.iter
        (fun (a, b) ->
          if b = idx && a <> p && tl.(a) >= 0 then
            record_pair t ~from:a ~upto:b (at - tl.(a)))
        marquee
    end

let live_timelines t = Hashtbl.length t.timelines

let timelines t =
  Stable.sorted_bindings ~cmp:Int.compare t.timelines
  |> List.map (fun (lsn, (pg, tl)) -> (lsn, !pg, Array.copy tl))

let clear t =
  Hashtbl.reset t.timelines;
  Queue.clear t.order
