module Json = Obs.Json

let pid = 1

(* Lane 0 is the volume-level lane; pg [g] maps to tid [g + 1]. *)
let tid_of_pg pg = if pg < 0 then 0 else pg + 1

let us_of_ns ns = float_of_int ns /. 1000.0

let base ~name ~ph ~ts ~tid rest =
  Json.Obj
    ([
       ("name", Json.String name);
       ("ph", Json.String ph);
       ("ts", Json.Float ts);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ rest)

let thread_name_meta tid label =
  base ~name:"thread_name" ~ph:"M" ~ts:0.0 ~tid
    [ ("args", Json.Obj [ ("name", Json.String label) ]) ]

let span ~name ~id ~tid ~ts_b ~ts_e acc =
  let mk ph ts =
    base ~name ~ph ~ts ~tid
      [ ("cat", Json.String "commit"); ("id", Json.Int id) ]
  in
  mk "e" ts_e :: mk "b" ts_b :: acc

(* One umbrella span per commit plus one sub-span per adjacent observed
   stage pair, all sharing id = lsn so Perfetto nests them in one track. *)
let timeline_events acc (lsn, pg, stages) =
  let tid = tid_of_pg pg in
  let observed =
    List.filter (fun i -> stages.(i) >= 0) (List.init Obs.Commit_path.n_stages Fun.id)
  in
  match observed with
  | [] | [ _ ] -> acc
  | first :: _ ->
    let last = List.fold_left (fun _ i -> i) first observed in
    let acc =
      span
        ~name:(Printf.sprintf "commit lsn=%d" lsn)
        ~id:lsn ~tid ~ts_b:(us_of_ns stages.(first)) ~ts_e:(us_of_ns stages.(last))
        acc
    in
    let rec pairs acc = function
      | a :: (b :: _ as rest) ->
        let acc =
          span
            ~name:(Obs.Commit_path.stage_name (Obs.Commit_path.stage_of_index b))
            ~id:lsn ~tid ~ts_b:(us_of_ns stages.(a)) ~ts_e:(us_of_ns stages.(b))
            acc
        in
        pairs acc rest
      | _ -> acc
    in
    pairs acc observed

let instant ~name ~at ~tid args =
  base ~name ~ph:"i" ~ts:(us_of_ns at) ~tid
    [ ("s", Json.String "t"); ("args", Json.Obj args) ]

(* Lifecycle events as (name, pg, args); traffic, watermark advances and
   commit events are not instants. *)
let lifecycle (ev : Event.t) =
  match ev with
  | Started -> Some ("started", -1, [])
  | Crashed -> Some ("crashed", -1, [])
  | Destroyed -> Some ("destroyed", -1, [])
  | Fenced { epoch } -> Some ("fenced", -1, [ ("epoch", Json.Int epoch) ])
  | Recovery_start { epoch } ->
    Some ("recovery started", -1, [ ("epoch", Json.Int epoch) ])
  | Recovery_finish { vcl; vdl } ->
    Some ("recovery finished", -1, [ ("vcl", Json.Int vcl); ("vdl", Json.Int vdl) ])
  | Membership_change { pg; epoch; phase } ->
    Some
      ( "membership " ^ Event.membership_phase_name phase,
        pg,
        [ ("epoch", Json.Int epoch) ] )
  | Health_edge { pg; edge } -> Some (Obs.Health.edge_name edge, pg, [])
  | Send _ | Receive _ | Drop _ | Scl_advance _ | Gossip_fill _
  | Hydrate_import _ | Vcl_advance _ | Vdl_advance _ | Pgmrpl_advance _
  | Epoch_change _ | Commit_submit _ | Commit_ack _ ->
    None

let to_json ctx rings =
  let timelines = Obs.Commit_path.timelines (Obs.Ctx.commit_path ctx) in
  let marks =
    List.filter_map
      (fun (e : Correlate.entry) ->
        Option.map
          (fun (name, pg, args) ->
            (e.at, name, pg, ("node", Json.Int e.node) :: args))
          (lifecycle e.event))
      (Correlate.entries (Rings.snapshot rings))
  in
  (* Lanes: volume lane 0 always, plus every pg seen anywhere. *)
  let pgs = Hashtbl.create 16 in
  let see pg = if pg >= 0 then Hashtbl.replace pgs pg () in
  List.iter (fun (_, pg, _) -> see pg) timelines;
  List.iter (fun (_, _, pg, _) -> see pg) marks;
  let lanes =
    thread_name_meta 0 "volume"
    :: (Obs.Stable.sorted_keys ~cmp:Int.compare pgs
       |> List.map (fun pg ->
              thread_name_meta (tid_of_pg pg) (Printf.sprintf "pg %d" pg)))
  in
  let spans = List.rev (List.fold_left timeline_events [] timelines) in
  let instants =
    List.map
      (fun (at, name, pg, args) -> instant ~name ~at ~tid:(tid_of_pg pg) args)
      marks
  in
  Json.Obj
    [
      ("traceEvents", Json.List (lanes @ spans @ instants));
      ("displayTimeUnit", Json.String "ms");
    ]

let to_string ?(pretty = false) ctx rings =
  Json.to_string ~pretty (to_json ctx rings)
