type t = {
  registry : Registry.t;
  commit_path : Commit_path.t;
  series : Series.t;
  health : Health.t;
}

let create () =
  let registry = Registry.create () in
  {
    registry;
    commit_path = Commit_path.create ~registry ();
    series = Series.create ~registry ();
    health = Health.create ();
  }

let registry t = t.registry
let commit_path t = t.commit_path
let series t = t.series
let health t = t.health

let snapshot_at ~at ?where t =
  let base =
    [
      ("at_ns", Json.Int at);
      ("instruments", Registry.snapshot ?where t.registry);
    ]
  in
  let series_field =
    if Series.n_samples t.series = 0 then []
    else [ ("series", Series.to_json t.series) ]
  in
  let health_field =
    match Health.last t.health with
    | None -> []
    | Some _ -> [ ("health", Health.to_json t.health) ]
  in
  Json.Obj (base @ series_field @ health_field)

let snapshot ?where t = snapshot_at ~at:Simcore.Time_ns.zero ?where t
