type pg_sample = {
  pg : int;
  total : int;
  reachable : int;
  ack_current : int;
  write_margin : int;
  read_margin : int;
  az_plus_one : bool;
  epoch : int;
}

type volume_sample = {
  vdl_vcl_gap : int;
  commit_queue_depth : int;
  max_replica_lag : int;
}

type sample = {
  at : Simcore.Time_ns.t;
  pgs : pg_sample list;
  volume : volume_sample;
}

let pg_write_ok p = p.write_margin >= 0

let sample_write_available s = List.for_all pg_write_ok s.pgs

type edge =
  | Write_quorum_lost
  | Write_quorum_regained
  | Az_plus_one_lost
  | Az_plus_one_regained

let edge_name = function
  | Write_quorum_lost -> "write_quorum_lost"
  | Write_quorum_regained -> "write_quorum_regained"
  | Az_plus_one_lost -> "az_plus_one_lost"
  | Az_plus_one_regained -> "az_plus_one_regained"

let all_edges =
  [ Write_quorum_lost; Write_quorum_regained; Az_plus_one_lost; Az_plus_one_regained ]

let edge_of_name s = List.find_opt (fun e -> edge_name e = s) all_edges

type t = {
  prev : (int, bool * bool) Hashtbl.t; (* pg -> (write_ok, az_plus_one) *)
  mutable last : sample option;
  mutable observed_ns : int;
  mutable available_ns : int;
  mutable transitions : int;
}

let create () =
  {
    prev = Hashtbl.create 16;
    last = None;
    observed_ns = 0;
    available_ns = 0;
    transitions = 0;
  }

let observe t ~at s =
  (* Integrate availability over [last.at, at) under the previous state
     (piecewise-constant, left-continuous). *)
  (match t.last with
  | Some prev when at > prev.at ->
    let dt = at - prev.at in
    t.observed_ns <- t.observed_ns + dt;
    if sample_write_available prev then t.available_ns <- t.available_ns + dt
  | Some _ | None -> ());
  (* Edge detection: a PG never seen before is presumed healthy, so the
     first unhealthy observation fires a loss edge. *)
  let fired = ref [] in
  let edge pg e = fired := (pg, e) :: !fired in
  List.iter
    (fun p ->
      let was_w, was_a =
        match Hashtbl.find_opt t.prev p.pg with
        | Some st -> st
        | None -> (true, true)
      in
      let now_w = pg_write_ok p and now_a = p.az_plus_one in
      if was_w && not now_w then edge p.pg Write_quorum_lost;
      if (not was_w) && now_w then edge p.pg Write_quorum_regained;
      if was_a && not now_a then edge p.pg Az_plus_one_lost;
      if (not was_a) && now_a then edge p.pg Az_plus_one_regained;
      Hashtbl.replace t.prev p.pg (now_w, now_a))
    s.pgs;
  t.last <- Some s;
  t.transitions <- t.transitions + List.length !fired;
  List.rev !fired

let last t = t.last
let observed_ns t = t.observed_ns
let transitions t = t.transitions

let write_available_fraction t =
  if t.observed_ns <= 0 then 1.
  else float_of_int t.available_ns /. float_of_int t.observed_ns

let pg_to_json p =
  Json.Obj
    [
      ("pg", Json.Int p.pg);
      ("total", Json.Int p.total);
      ("reachable", Json.Int p.reachable);
      ("ack_current", Json.Int p.ack_current);
      ("write_margin", Json.Int p.write_margin);
      ("read_margin", Json.Int p.read_margin);
      ("az_plus_one", Json.Bool p.az_plus_one);
      ("epoch", Json.Int p.epoch);
    ]

let to_json t =
  let base =
    [
      ("write_available_fraction", Json.Float (write_available_fraction t));
      ("observed_ns", Json.Int t.observed_ns);
      ("transitions", Json.Int t.transitions);
    ]
  in
  let current =
    match t.last with
    | None -> []
    | Some s ->
      [
        ( "current",
          Json.Obj
            [
              ("at_ns", Json.Int s.at);
              ("write_available", Json.Bool (sample_write_available s));
              ("vdl_vcl_gap", Json.Int s.volume.vdl_vcl_gap);
              ("commit_queue_depth", Json.Int s.volume.commit_queue_depth);
              ("max_replica_lag", Json.Int s.volume.max_replica_lag);
              ("pgs", Json.List (List.map pg_to_json s.pgs));
            ] );
      ]
  in
  Json.Obj (base @ current)
