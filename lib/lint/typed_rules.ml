(* The typed-tier rule set: pure functions over {!Typed_summary} unit
   summaries.  See DESIGN.md §6 for the catalogue and escape hatches. *)

type config = {
  hot_roots : string list;
      (* Qualified names of hot entry points; allocation reachable from any
         of them (through repo code) is a finding. *)
  sim_scope : string -> bool;  (* logical source path is sim-scoped *)
  describe_checks : (string * string) list;  (* (type, total function) *)
  emit_checks : (string * string) list;  (* (type, defining-dir prefix) *)
  poly_types : string list;  (* protocol types: no polymorphic compare *)
}

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let default =
  {
    hot_roots =
      [
        "Simcore.Sim.exec";
        "Simcore.Sim.step";
        "Simcore.Sim.run";
        "Simcore.Sim.run_until";
        "Simcore.Sim.schedule";
        "Simcore.Sim.schedule_at";
        "Simnet.Net.send";
        "Simnet.Net.deliver";
        "Wal.Hot_log.insert";
        "Wal.Hot_log.advance";
        "Wal.Log_record.make";
        "Wal.Log_record.op_bytes";
        "Wal.Log_record.lsn_range";
        "Wal.Log_record.is_commit";
        "Wal.Log_record.is_abort";
        "Aurora_core.Buffer_cache.touch";
        "Aurora_core.Buffer_cache.evict_pressure";
      ];
    sim_scope = (fun src -> has_prefix ~prefix:"lib/" src);
    describe_checks = [ ("Storage.Protocol.t", "Storage.Protocol.describe") ];
    emit_checks =
      [
        ("Recorder.Event.t", "lib/recorder");
        ("Recorder.Event.msg_kind", "lib/recorder");
        ("Recorder.Event.membership_phase", "lib/recorder");
      ];
    poly_types =
      [
        "Wal.Lsn.t";
        "Wal.Txn_id.t";
        "Wal.Block_id.t";
        "Quorum.Epoch.t";
        "Quorum.Member_id.t";
        "Storage.Pg_id.t";
        "Simnet.Addr.t";
      ];
  }

let catalogue =
  [
    ( "typed-hot-alloc",
      "no allocation reachable from a hot entry point ([@alloc_ok] to \
       exempt)" );
    ( "typed-sim-global",
      "no top-level mutable state in lib/ unless annotated [@@sim_global]" );
    ( "typed-describe-coverage",
      "every Storage.Protocol constructor handled in Protocol.describe" );
    ( "typed-event-emit",
      "every Recorder.Event constructor emitted by some non-recorder module"
    );
    ( "typed-poly-compare",
      "no polymorphic compare on protocol types (typed, catches local \
       bindings)" );
  ]

open Typed_summary

(* Findings that guard against manifest rot (a renamed root or type would
   otherwise silently disable a rule) anchor to this pseudo-file. *)
let manifest_file = "(typed-lint-manifest)"

let index_bindings units =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun u ->
      List.iter (fun b -> Hashtbl.replace tbl b.b_name (b, u)) u.u_bindings)
    units;
  tbl

(* ---------------- hot-path allocation ---------------- *)

let hot_alloc cfg units =
  let index = index_bindings units in
  let findings = ref [] in
  let add ~file ~line ~col msg =
    findings :=
      Finding.make ~rule:"typed-hot-alloc" ~file ~line ~col msg :: !findings
  in
  let visited = Hashtbl.create 256 in
  let rec visit ~root name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.replace visited name ();
      match Hashtbl.find_opt index name with
      | None -> ()
      | Some (b, u) ->
        if b.b_is_function then begin
          List.iter
            (fun a ->
              add ~file:u.u_source ~line:a.a_line ~col:a.a_col
                (Printf.sprintf
                   "%s allocated in %s, reachable from hot entry %s \
                    (annotate [@alloc_ok \"reason\"] if deliberate)"
                   a.a_desc b.b_name root))
            b.b_allocs;
          List.iter
            (fun r ->
              if Hashtbl.mem index r.r_name then visit ~root r.r_name
              else if
                (not r.r_suppressed) && allocating_external r.r_name
              then
                add ~file:u.u_source ~line:r.r_line ~col:r.r_col
                  (Printf.sprintf
                     "call to allocating %s in %s, reachable from hot entry \
                      %s"
                     r.r_name b.b_name root))
            b.b_refs
        end
    end
  in
  List.iter
    (fun root ->
      if Hashtbl.mem index root then visit ~root root
      else
        add ~file:manifest_file ~line:1 ~col:0
          (Printf.sprintf
             "hot-path manifest entry %s not found in any analyzed module \
              (manifest rot?)"
             root))
    cfg.hot_roots;
  !findings

(* ---------------- sim-state purity ---------------- *)

let sim_global cfg units =
  List.concat_map
    (fun u ->
      if not (cfg.sim_scope u.u_source) then []
      else
        List.filter_map
          (fun b ->
            match b.b_mutable_evidence with
            | Some (line, col, desc)
              when (not b.b_is_function) && not b.b_sim_global ->
              Some
                (Finding.make ~rule:"typed-sim-global" ~file:u.u_source ~line
                   ~col
                   (Printf.sprintf
                      "top-level mutable state %s (%s): keep it in a value \
                       the caller owns, or annotate [@@sim_global] with the \
                       reason"
                      b.b_name desc))
            | _ -> None)
          u.u_bindings)
    units

(* ---------------- protocol describe coverage ---------------- *)

let find_type units ty =
  List.fold_left
    (fun acc u ->
      match acc with
      | Some _ -> acc
      | None -> (
        match
          List.find_opt (fun d -> String.equal d.ty_name ty) u.u_types
        with
        | Some d -> Some (u, d)
        | None -> None))
    None units

let describe_coverage cfg units =
  let index = index_bindings units in
  let findings = ref [] in
  let manifest msg =
    findings :=
      Finding.make ~rule:"typed-describe-coverage" ~file:manifest_file
        ~line:1 ~col:0 msg
      :: !findings
  in
  List.iter
    (fun (ty, fn) ->
      match (find_type units ty, Hashtbl.find_opt index fn) with
      | None, _ ->
        manifest (Printf.sprintf "type %s not found (manifest rot?)" ty)
      | _, None ->
        manifest (Printf.sprintf "function %s not found (manifest rot?)" fn)
      | Some (tu, decl), Some (b, _) ->
        List.iter
          (fun c ->
            if
              not
                (List.exists
                   (fun cu ->
                     String.equal cu.cu_ty ty
                     && String.equal cu.cu_con c.c_name)
                   b.b_pat_cons)
            then
              findings :=
                Finding.make ~rule:"typed-describe-coverage" ~file:tu.u_source
                  ~line:c.c_line ~col:c.c_col
                  (Printf.sprintf "constructor %s of %s is not handled in %s"
                     c.c_name ty fn)
                :: !findings)
          decl.ty_cons)
    cfg.describe_checks;
  !findings

(* ---------------- event emission coverage ---------------- *)

let event_emit cfg units =
  let findings = ref [] in
  List.iter
    (fun (ty, defining_prefix) ->
      match find_type units ty with
      | None ->
        findings :=
          Finding.make ~rule:"typed-event-emit" ~file:manifest_file ~line:1
            ~col:0
            (Printf.sprintf "type %s not found (manifest rot?)" ty)
          :: !findings
      | Some (tu, decl) ->
        let emitted = Hashtbl.create 32 in
        List.iter
          (fun u ->
            if not (has_prefix ~prefix:defining_prefix u.u_source) then
              List.iter
                (fun b ->
                  List.iter
                    (fun cu ->
                      if String.equal cu.cu_ty ty then
                        Hashtbl.replace emitted cu.cu_con ())
                    b.b_exp_cons)
                u.u_bindings)
          units;
        List.iter
          (fun c ->
            if not (Hashtbl.mem emitted c.c_name) then
              findings :=
                Finding.make ~rule:"typed-event-emit" ~file:tu.u_source
                  ~line:c.c_line ~col:c.c_col
                  (Printf.sprintf
                     "constructor %s of %s is never emitted outside %s — \
                      dead event or missing hook site"
                     c.c_name ty defining_prefix)
                :: !findings)
          decl.ty_cons)
    cfg.emit_checks;
  !findings

(* ---------------- typed poly-compare ---------------- *)

(* The defining module is exempt: [Lsn.compare] itself is implemented on
   the underlying representation. *)
let defining_source units ty =
  match String.rindex_opt ty '.' with
  | None -> None
  | Some i -> (
    let m = String.sub ty 0 i in
    match List.find_opt (fun u -> String.equal u.u_modname m) units with
    | Some u -> Some u.u_source
    | None -> None)

let poly_compare cfg units =
  let findings = ref [] in
  List.iter
    (fun u ->
      List.iter
        (fun b ->
          List.iter
            (fun h ->
              let in_defining_module =
                match defining_source units h.p_ty with
                | Some src -> String.equal src u.u_source
                | None -> false
              in
              if
                List.exists (String.equal h.p_ty) cfg.poly_types
                && not in_defining_module
              then
                findings :=
                  Finding.make ~rule:"typed-poly-compare" ~file:u.u_source
                    ~line:h.p_line ~col:h.p_col
                    (Printf.sprintf
                       "polymorphic %s applied at type %s — use the \
                        module's typed compare/equal"
                       h.p_op h.p_ty)
                  :: !findings)
            b.b_poly)
        u.u_bindings)
    units;
  !findings

let run cfg units =
  hot_alloc cfg units @ sim_global cfg units
  @ describe_coverage cfg units
  @ event_emit cfg units @ poly_compare cfg units
