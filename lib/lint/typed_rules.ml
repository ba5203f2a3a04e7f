(* The rule set: pure functions over {!Typed_summary} unit summaries plus
   the on-disk source list.  See DESIGN.md §6 for the catalogue and escape
   hatches. *)

type config = {
  hot_roots : string list;
      (* Qualified names of hot entry points; allocation reachable from any
         of them (through repo code) is a finding. *)
  lib_scope : string -> bool;
      (* logical source paths the call-graph and coverage rules see *)
  describe_checks : (string * string) list;  (* (type, total function) *)
  emit_checks : (string * string) list;  (* (type, defining-dir prefix) *)
  poly_types : string list;  (* protocol types: no polymorphic compare *)
}

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
        "Aurora_core.Consistency.note_ack";
      ];
    lib_scope = (fun src -> String.starts_with ~prefix:"lib/" src);
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

(* ---------------- path-scoped rules ---------------- *)

(* Rules whose scope is a property of the source path.  Paths are
   repo-root-relative logical paths ([lib/core/database.ml]). *)
type scoped = {
  id : string;
  description : string;
  applies : string -> bool;
  allow : string list;  (* path prefixes exempted, with justification *)
}

let under dir path = String.starts_with ~prefix:(dir ^ "/") path

(* Sim code: everything compiled into the simulator, its CLI, and the
   benchmark harness.  Wall-clock timing of the harness itself is the one
   legitimate use of real time, and Perf.Clock is the one module allowed to
   perform it — everything else (bench/ included) must route wall-clock
   reads through it. *)
let sim_code path =
  under "lib" path || under "bin" path || under "bench" path

(* Modules whose hash-table iteration order can leak into JSON / trace /
   time-series output.  lib/obs is the whole observability layer; report
   renders experiment output directly; lib/vopr renders violation
   lists and repro digests whose byte-identity across reruns is the whole
   point; lib/recorder renders flight-recorder artifacts and explain
   timelines under the same byte-stability contract. *)
let output_feeding path =
  under "lib/obs" path
  || under "lib/vopr" path
  || under "lib/recorder" path
  || path = "lib/harness/report.ml"

let determinism =
  {
    id = "determinism";
    description =
      "no Unix.*, Sys.time, Random.*, or Hashtbl.hash in sim code; route \
       sim time through Simcore.Time_ns, randomness through Simcore.Rng, \
       and harness wall-clock through Perf.Clock";
    applies = sim_code;
    (* The perf layer's wall-clock gateway: the single audited module that
       may read real time (for benchmark reports and profiling probes, never
       for simulated behaviour). *)
    allow = [ "lib/perf/clock.ml" ];
  }

let stable_iteration =
  {
    id = "stable-iteration";
    description =
      "no Hashtbl.iter/fold in modules that feed JSON/trace/series output; \
       use Obs.Stable.sorted_bindings so emission order is key-sorted";
    applies = output_feeding;
    (* Stable is the one audited place allowed to fold a hash table: it
       exists to sort the bindings before anyone can observe their order. *)
    allow = [ "lib/obs/stable.ml" ];
  }

let lsn_arith =
  {
    id = "lsn-arith";
    description =
      "no raw integer arithmetic on LSN-carrying values outside \
       lib/wal/lsn.ml; use Lsn.next/Lsn.add or keep the arithmetic behind \
       the Lsn interface";
    applies = (fun _ -> true);
    allow = [ "lib/wal/lsn.ml" ];
  }

let mli_coverage =
  {
    id = "mli-coverage";
    description = "every lib/**/*.ml must have a matching .mli";
    applies = under "lib";
    allow = [];
  }

(* The guarantee that nothing escapes the rules: every implementation under
   the scanned roots must have a typed tree.  A file that does not parse,
   or that no dune stanza builds, has none. *)
let uncompiled =
  {
    id = "uncompiled";
    description =
      "every .ml under the scanned roots has a .cmt, so no source escapes \
       the rules (a file that does not compile or that no dune stanza \
       builds is a finding)";
    applies = (fun _ -> true);
    allow = [];
  }

let active r path =
  r.applies path
  && not (List.exists (fun a -> a = path || under a path) r.allow)

let catalogue =
  List.map
    (fun r -> (r.id, r.description))
    [ determinism; stable_iteration; lsn_arith; mli_coverage; uncompiled ]
  @ [
      ( "typed-hot-alloc",
        "no allocation reachable from a hot entry point ([@alloc_ok] to \
         exempt)" );
      ( "typed-sim-global",
        "no top-level mutable state in lib/ unless annotated [@@sim_global]"
      );
      ( "typed-describe-coverage",
        "every Storage.Protocol constructor handled in Protocol.describe" );
      ( "typed-event-emit",
        "every Recorder.Event constructor emitted by some lib/ module \
         outside lib/recorder" );
      ( "typed-poly-compare",
        "no polymorphic =, <>, <, compare, min, max, ... on protocol types \
         (Lsn.t, Txn_id.t, Block_id.t, Epoch.t, Member_id.t, Pg_id.t, \
         Addr.t) or their modules' Set.t/Map.t, type-resolved; use the \
         module's own equal/compare/min/max"
      );
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

let sim_global units =
  List.concat_map
    (fun u ->
      List.filter_map
        (fun b ->
          match b.b_mutable_evidence with
          | Some (line, col, desc)
            when (not b.b_is_function) && not b.b_sim_global ->
            Some
              (Finding.make ~rule:"typed-sim-global" ~file:u.u_source ~line
                 ~col
                 (Printf.sprintf
                    "top-level mutable state %s (%s): keep it in a value the \
                     caller owns, or annotate [@@sim_global] with the reason"
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
            if not (String.starts_with ~prefix:defining_prefix u.u_source)
            then
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

(* The module that defines a protocol type: [Wal.Lsn] for [Wal.Lsn.t]. *)
let type_module ty =
  match String.rindex_opt ty '.' with
  | None -> ty
  | Some i -> String.sub ty 0 i

(* The defining module is exempt: [Lsn.compare] itself is implemented on
   the underlying representation. *)
let defining_source units ty =
  let m = type_module ty in
  match List.find_opt (fun u -> String.equal u.u_modname m) units with
  | Some u -> Some u.u_source
  | None -> None

let poly_compare cfg units =
  List.concat_map
    (fun u ->
      List.filter_map
        (fun h ->
          (* A protocol type, or any type its module defines:
             [Member_id.Set.t] and [Lsn.Map.t] are balanced trees whose
             structural equality depends on their shape, which is just as
             broken as comparing the raw values. *)
          let protocol ty =
            List.exists
              (fun p ->
                String.starts_with ~prefix:(type_module p ^ ".") ty
                &&
                match defining_source units p with
                | Some src -> not (String.equal src u.u_source)
                | None -> true)
              cfg.poly_types
          in
          match List.find_opt protocol h.p_tys with
          | None -> None
          | Some ty ->
            Some
              (Finding.make ~rule:"typed-poly-compare" ~file:u.u_source
                 ~line:h.p_line ~col:h.p_col
                 (Printf.sprintf
                    "polymorphic %s applied at type %s — use the module's \
                     typed compare/equal"
                    h.p_op ty)))
        u.u_poly)
    units

(* ---------------- site rules ---------------- *)

let finding r u (s : site) msg =
  Finding.make ~rule:r.id ~file:u.u_source ~line:s.s_line ~col:s.s_col msg

(* [Stdlib.Random.int] and [Random.int] are the same thing to a rule. *)
let parts name =
  match String.split_on_char '.' name with
  | "Stdlib" :: rest -> rest
  | parts -> parts

let short name = String.concat "." (parts name)

let banned_value name =
  match parts name with
  | ("Unix" | "UnixLabels") :: _ ->
    Some "wall-clock / OS entropy via Unix; use Simcore.Time_ns (sim time) \
          or Simcore.Rng (seeded randomness)"
  | [ "Sys"; "time" ] ->
    Some "process time via Sys.time; use Simcore.Time_ns"
  | "Random" :: _ ->
    Some "unseeded global randomness via Stdlib.Random; use Simcore.Rng"
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] ->
    Some "Hashtbl.hash on sim state; use an explicit deterministic hash \
          (Simcore.Bits.fnv1a_string) so block placement and checksums are \
          representation-independent"
  | _ -> None

let site_rules units =
  List.concat_map
    (fun u ->
      let on r = active r u.u_source in
      let values =
        List.filter_map
          (fun s ->
            match (banned_value s.s_name, parts s.s_name) with
            | Some why, _ when on determinism ->
              Some
                (finding determinism u s
                   (Printf.sprintf "%s: %s" (short s.s_name) why))
            | _, [ "Hashtbl"; (("iter" | "fold") as fn) ]
              when on stable_iteration ->
              Some
                (finding stable_iteration u s
                   (Printf.sprintf
                      "Hashtbl.%s in an output-feeding module iterates in \
                       hash order; use Obs.Stable.sorted_bindings"
                      fn))
            | _ -> None)
          u.u_values
      in
      let arith =
        if not (on lsn_arith) then []
        else
          List.map
            (fun s ->
              finding lsn_arith u s
                (Printf.sprintf
                   "raw integer %s on an LSN-carrying value; use \
                    Lsn.next/Lsn.add or move the arithmetic behind \
                    lib/wal/lsn.ml"
                   (short s.s_name)))
            u.u_lsn_arith
      in
      values @ arith)
    units

(* ---------------- source-set rules ---------------- *)

(* [sources] are the logical paths of the .ml/.mli files on disk under the
   scanned roots. *)
let source_rules ~sources units =
  let compiled = Hashtbl.create 256 in
  List.iter (fun u -> Hashtbl.replace compiled u.u_source ()) units;
  let check r src ok msg =
    if active r src && not ok then
      [ Finding.make ~rule:r.id ~file:src ~line:1 ~col:0 msg ]
    else []
  in
  List.concat_map
    (fun src ->
      if not (String.ends_with ~suffix:".ml" src) then []
      else
        check mli_coverage src
          (List.mem (src ^ "i") sources)
          (Printf.sprintf "missing interface %si" src)
        @ check uncompiled src (Hashtbl.mem compiled src)
            "no .cmt for this file: it does not compile, or no dune stanza \
             builds it, so no rule can check it")
    sources

let run cfg ~sources units =
  let lib = List.filter (fun u -> cfg.lib_scope u.u_source) units in
  hot_alloc cfg lib @ sim_global lib
  @ describe_coverage cfg lib
  @ event_emit cfg lib @ poly_compare cfg units @ site_rules units
  @ source_rules ~sources units
