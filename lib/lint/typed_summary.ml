(* Per-module summaries extracted from typed trees.

   One walk per top-level binding collects everything the interprocedural
   rules need: direct allocation sites (with [@alloc_ok] suppression),
   referenced global names (the call-graph edges), constructors matched in
   patterns and built in expressions, and top-level mutable-state
   evidence.  A second walk over the whole unit (functor bodies and
   top-level effects included) collects the site-level facts: every
   external value reference, polymorphic comparisons with their operand
   types, and raw arithmetic on LSN-carrying operands.  The rules in
   {!Typed_rules} are then pure functions over these summaries. *)

type alloc = { a_line : int; a_col : int; a_desc : string }

type ref_use = {
  r_name : string;  (* normalized dotted name *)
  r_line : int;
  r_col : int;
  r_suppressed : bool;  (* under an [@alloc_ok] subtree *)
}

type con_use = { cu_ty : string; cu_con : string }
type site = { s_line : int; s_col : int; s_name : string }

type poly_hit = {
  p_line : int;
  p_col : int;
  p_op : string;
  p_tys : string list;
}

type binding = {
  b_name : string;  (* qualified, e.g. "Simcore.Sim.schedule_at" *)
  b_line : int;
  b_col : int;
  b_is_function : bool;
  b_allocs : alloc list;
  b_refs : ref_use list;  (* one entry per distinct name *)
  b_pat_cons : con_use list;
  b_exp_cons : con_use list;
  b_mutable_evidence : (int * int * string) option;
  b_sim_global : bool;  (* carries [@@sim_global] *)
}

type tycon = { c_name : string; c_line : int; c_col : int }
type tydecl = { ty_name : string; ty_cons : tycon list }

type unit_summary = {
  u_modname : string;
  u_source : string;
  u_bindings : binding list;
  u_types : tydecl list;
  u_values : site list;
  u_poly : poly_hit list;
  u_lsn_arith : site list;
}

let line_col (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let has_attr name (attrs : Typedtree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

let normalize_path p = Typed_loader.normalize_modname (Path.name p)

(* Comparison primitives whose polymorphic use on protocol types the typed
   poly-compare rule rejects. *)
let poly_ops =
  [
    "Stdlib.compare"; "Stdlib.="; "Stdlib.<>"; "Stdlib.<"; "Stdlib.>";
    "Stdlib.<="; "Stdlib.>="; "Stdlib.min"; "Stdlib.max";
  ]

(* Integer arithmetic the lsn-arith rule watches.  Module-qualified or
   locally rebound operators ([Lsn.( + )]) resolve elsewhere: they are the
   fix, not a finding. *)
let arith_ops =
  [ "Stdlib.+"; "Stdlib.-"; "Stdlib.*"; "Stdlib./"; "Stdlib.mod" ]

(* Known-allocating externals.  Scope note (DESIGN.md §6): this is about
   allocation performed *per call at the call site's request* — list and
   string builders, boxing conversions, formatting.  Allocation internal to
   a stdlib structure's amortized growth (Hashtbl.replace resizing,
   Buffer.add_* doubling) and float boxing are documented out of scope. *)
let allocating_exact =
  [
    "Stdlib.ref"; "Stdlib.@"; "Stdlib.^"; "Stdlib.^^";
    "Stdlib.string_of_int"; "Stdlib.string_of_float"; "Stdlib.string_of_bool";
    "Stdlib.int_of_string_opt"; "Stdlib.float_of_string_opt";
    "Stdlib.bool_of_string_opt";
    "Stdlib.List.cons";
  ]

let allocating_prefix =
  [ "Stdlib.Printf."; "Stdlib.Format."; "Stdlib.Scanf."; "Stdlib.Seq." ]

(* Suffix-matched so functor instances ([Addr.Tbl.find_opt]) are caught,
   not just the stdlib originals. *)
let allocating_suffix =
  [
    ".create"; ".make"; ".init"; ".copy"; ".map"; ".mapi"; ".filter";
    ".filteri"; ".filter_map"; ".partition"; ".flatten"; ".concat";
    ".append"; ".rev"; ".sort"; ".merge"; ".split"; ".combine";
    ".find_opt"; ".find_all"; ".assoc_opt"; ".assq_opt"; ".nth_opt";
    ".to_list"; ".of_list"; ".to_seq"; ".of_seq"; ".to_array"; ".of_array";
    ".elements"; ".bindings"; ".cardinal_opt"; ".min_binding"; ".max_binding";
    ".min_elt"; ".max_elt"; ".choose"; ".sub"; ".blit_to"; ".escaped";
    ".uppercase_ascii"; ".lowercase_ascii"; ".trim";
  ]

(* Int64/Int32/Nativeint results are boxed; only the unboxing/readout
   operations are allocation-free. *)
let boxed_int_prefix = [ "Stdlib.Int64."; "Stdlib.Int32."; "Stdlib.Nativeint." ]
let boxed_int_free_tail = [ "to_int"; "compare"; "equal" ]

let allocating_external name =
  List.exists (String.equal name) allocating_exact
  || List.exists (fun p -> String.starts_with ~prefix:p name) allocating_prefix
  || List.exists (fun s -> String.ends_with ~suffix:s name) allocating_suffix
  ||
  match
    List.find_opt (fun p -> String.starts_with ~prefix:p name) boxed_int_prefix
  with
  | None -> false
  | Some p ->
    let tail =
      String.sub name (String.length p) (String.length name - String.length p)
    in
    not (List.exists (String.equal tail) boxed_int_free_tail)

(* Creator applications that make a top-level binding mutable state for the
   sim-state purity rule. *)
let mutable_creator name =
  String.equal name "Stdlib.ref"
  || String.ends_with ~suffix:".create" name
  || List.exists (String.equal name)
       [
         "Stdlib.Array.make"; "Stdlib.Array.init"; "Stdlib.Array.copy";
         "Stdlib.Atomic.make"; "Stdlib.Bytes.make"; "Stdlib.Bytes.create";
       ]

(* ------------------------------------------------------------------ *)
(* Per-binding collector state.                                        *)

type ctx = {
  unit_name : string;
  globals : (string, string) Hashtbl.t;  (* Ident.unique_name -> qualified *)
  refs : (string, ref_use) Hashtbl.t;
  mutable allocs : alloc list;
  mutable pat_cons : con_use list;
  mutable exp_cons : con_use list;
  mutable mut_ev : (int * int * string) option;
  mutable suppressed : bool;
  mutable heads : Typedtree.expression list;  (* outermost lambda chain *)
}

let note_alloc ctx desc (loc : Location.t) =
  if not ctx.suppressed then begin
    let line, col = line_col loc in
    ctx.allocs <- { a_line = line; a_col = col; a_desc = desc } :: ctx.allocs
  end

let note_ref ctx name (loc : Location.t) =
  let line, col = line_col loc in
  let use =
    { r_name = name; r_line = line; r_col = col; r_suppressed = ctx.suppressed }
  in
  match Hashtbl.find_opt ctx.refs name with
  | None -> Hashtbl.replace ctx.refs name use
  | Some prev ->
    (* Keep an unsuppressed occurrence if any exists: the blocklist check
       must not be silenced by a later [@alloc_ok] use of the same name. *)
    if prev.r_suppressed && not ctx.suppressed then
      Hashtbl.replace ctx.refs name use

let note_mut ctx desc (loc : Location.t) =
  match ctx.mut_ev with
  | Some _ -> ()
  | None ->
    let line, col = line_col loc in
    ctx.mut_ev <- Some (line, col, desc)

(* Qualify an unqualified type name ("t" inside its defining unit) with the
   unit's module path. *)
let qualify_ty ~unit_name name =
  if String.contains name '.' then name else unit_name ^ "." ^ name

(* The head type constructor of a type, qualified; [None] for type
   variables, arrows, tuples and the like. *)
let head_type ~unit_name ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (qualify_ty ~unit_name (normalize_path p))
  | _ -> None

let con_of_desc ctx (cd : Types.constructor_description) =
  match head_type ~unit_name:ctx.unit_name cd.cstr_res with
  | Some ty -> Some { cu_ty = ty; cu_con = cd.cstr_name }
  | None -> None

let ident_ref ctx path =
  match path with
  | Path.Pident id -> Hashtbl.find_opt ctx.globals (Ident.unique_name id)
  | _ -> Some (normalize_path path)

let iterator ctx =
  let open Tast_iterator in
  let expr it (e : Typedtree.expression) =
    let was = ctx.suppressed in
    if has_attr "alloc_ok" e.exp_attributes then ctx.suppressed <- true;
    (match e.exp_desc with
    | Typedtree.Texp_ident (path, _, _) -> (
      match ident_ref ctx path with
      | Some name -> note_ref ctx name e.exp_loc
      | None -> ())
    | Typedtree.Texp_function _ ->
      if not (List.memq e ctx.heads) then note_alloc ctx "closure" e.exp_loc
    | Typedtree.Texp_tuple _ -> note_alloc ctx "tuple" e.exp_loc
    | Typedtree.Texp_construct (_, cd, args) -> (
      (match con_of_desc ctx cd with
      | Some cu -> ctx.exp_cons <- cu :: ctx.exp_cons
      | None -> ());
      match cd.Types.cstr_tag with
      | Types.Cstr_block _ | Types.Cstr_extension _ ->
        if args <> [] then
          note_alloc ctx ("variant block " ^ cd.Types.cstr_name) e.exp_loc
      | Types.Cstr_constant _ | Types.Cstr_unboxed -> ())
    | Typedtree.Texp_record { fields; _ } ->
      note_alloc ctx "record" e.exp_loc;
      if
        Array.exists
          (fun ((ld : Types.label_description), _) ->
            ld.lbl_mut = Asttypes.Mutable)
          fields
      then note_mut ctx "mutable record" e.exp_loc
    | Typedtree.Texp_array _ ->
      note_alloc ctx "array" e.exp_loc;
      note_mut ctx "array literal" e.exp_loc
    | Typedtree.Texp_lazy _ -> note_alloc ctx "lazy" e.exp_loc
    | Typedtree.Texp_object _ -> note_alloc ctx "object" e.exp_loc
    | Typedtree.Texp_pack _ -> note_alloc ctx "first-class module" e.exp_loc
    | Typedtree.Texp_apply
        ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, _) ->
      let name = normalize_path p in
      if mutable_creator name then note_mut ctx name e.exp_loc
    | _ -> ());
    default_iterator.expr it e;
    ctx.suppressed <- was
  in
  let pat : type k. iterator -> k Typedtree.general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Typedtree.Tpat_construct (_, cd, _, _) -> (
      match con_of_desc ctx cd with
      | Some cu -> ctx.pat_cons <- cu :: ctx.pat_cons
      | None -> ())
    | _ -> ());
    default_iterator.pat it p
  in
  { default_iterator with expr; pat }

(* The outermost lambda chain of [let f x y = ...] is the function's
   signature, not a per-call allocation; everything past the first
   multi-case [function] (or non-lambda body) allocates per call.  The
   typechecker desugars [?(x = default)] into a ghost [let] between two
   parameter lambdas — chase through those so optional arguments do not
   read as nested closures. *)
let head_chain e =
  let rec go acc (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_function { cases = [ { c_rhs; c_guard = None; _ } ]; _ }
      ->
      go (e :: acc) c_rhs
    | Typedtree.Texp_function _ -> e :: acc
    | Typedtree.Texp_let (_, _, body) when e.exp_loc.loc_ghost -> go acc body
    | _ -> acc
  in
  go [] e

let dedup_cons l =
  List.sort_uniq
    (fun a b ->
      match String.compare a.cu_ty b.cu_ty with
      | 0 -> String.compare a.cu_con b.cu_con
      | c -> c)
    l

let summarize_binding ~unit_name ~globals ~name (vb : Typedtree.value_binding)
    =
  let ctx =
    {
      unit_name;
      globals;
      refs = Hashtbl.create 32;
      allocs = [];
      pat_cons = [];
      exp_cons = [];
      mut_ev = None;
      suppressed = false;
      heads = head_chain vb.vb_expr;
    }
  in
  let it = iterator ctx in
  it.expr it vb.vb_expr;
  let line, col = line_col vb.vb_loc in
  let binding_suppressed = has_attr "alloc_ok" vb.vb_attributes in
  let refs =
    Hashtbl.fold (fun _ use acc -> use :: acc) ctx.refs []
    |> List.sort (fun a b -> String.compare a.r_name b.r_name)
    |> List.map (fun r ->
           (* [@@alloc_ok] on the binding blesses its blocklisted calls
              too, not just its direct allocation sites. *)
           if binding_suppressed then { r with r_suppressed = true } else r)
  in
  {
    b_name = name;
    b_line = line;
    b_col = col;
    b_is_function = ctx.heads <> [];
    b_allocs =
      (if binding_suppressed then []
       else
         List.sort
           (fun a b ->
             match Int.compare a.a_line b.a_line with
             | 0 -> Int.compare a.a_col b.a_col
             | c -> c)
           ctx.allocs);
    b_refs = refs;
    b_pat_cons = dedup_cons ctx.pat_cons;
    b_exp_cons = dedup_cons ctx.exp_cons;
    b_mutable_evidence = ctx.mut_ev;
    b_sim_global = has_attr "sim_global" vb.vb_attributes;
  }

(* ------------------------------------------------------------------ *)
(* Whole-unit site walk.                                               *)

(* The types a polymorphic comparison operand carries: its own head type
   and, through tuples and constructor arguments, those of its parts — so
   [Some lsn = x] and [(a, lsn) = t] compare at [Lsn.t] as well. *)
let rec operand_types ~unit_name (e : Typedtree.expression) =
  let own = Option.to_list (head_type ~unit_name e.exp_type) in
  match e.exp_desc with
  | Typedtree.Texp_tuple es | Typedtree.Texp_construct (_, _, es) ->
    own @ List.concat_map (operand_types ~unit_name) es
  | _ -> own

let path_mentions_lsn p =
  List.mem "Lsn" (String.split_on_char '.' (normalize_path p))

let rec type_mentions_lsn (ty : Typedtree.core_type) =
  match ty.ctyp_desc with
  | Typedtree.Ttyp_constr (p, _, args) ->
    path_mentions_lsn p || List.exists type_mentions_lsn args
  | Typedtree.Ttyp_tuple tys -> List.exists type_mentions_lsn tys
  | Typedtree.Ttyp_arrow (_, a, b) -> type_mentions_lsn a || type_mentions_lsn b
  | _ -> false

(* Does this arithmetic operand look LSN-carrying?  A deliberately shallow
   test: an identifier whose path mentions [Lsn] (pretty-printers aside —
   [Lsn.to_int x + 1] is precisely the smell), an application headed by
   one, or a type constraint mentioning [Lsn].  Anything opaque (a record
   field, a plain local) is not inspected. *)
let rec lsn_operand (e : Typedtree.expression) =
  List.exists
    (function
      | Typedtree.Texp_constraint ty, _, _ -> type_mentions_lsn ty
      | _ -> false)
    e.exp_extra
  ||
  match e.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> (
    path_mentions_lsn p
    &&
    match p with
    | Path.Pdot (_, last) -> not (List.mem last [ "pp"; "to_string" ])
    | _ -> true)
  | Typedtree.Texp_apply (f, _) -> lsn_operand f
  | _ -> false

let collect_sites ~unit_name (str : Typedtree.structure) =
  let values = ref [] and poly = ref [] and arith = ref [] in
  let site name (loc : Location.t) =
    let line, col = line_col loc in
    { s_line = line; s_col = col; s_name = name }
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident ((Path.Pdot _ as p), _, _) ->
      values := site (normalize_path p) e.exp_loc :: !values
    | Typedtree.Texp_apply
        ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) ->
      let name = normalize_path p in
      let operands = List.filter_map snd args in
      if List.exists (String.equal name) poly_ops then begin
        let line, col = line_col e.exp_loc in
        let tys = List.concat_map (operand_types ~unit_name) operands in
        poly :=
          {
            p_line = line;
            p_col = col;
            p_op = name;
            p_tys = List.sort_uniq String.compare tys;
          }
          :: !poly
      end;
      if
        List.exists (String.equal name) arith_ops
        && List.exists lsn_operand operands
      then arith := site name e.exp_loc :: !arith
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str;
  (List.rev !values, List.rev !poly, List.rev !arith)

(* ------------------------------------------------------------------ *)
(* Structure walk: collect the global ident table first (so unqualified
   references resolve to qualified names), then summarize each binding,
   descending into nested modules with a dotted prefix.                 *)

let pattern_idents (p : Typedtree.pattern) =
  let acc = ref [] in
  let rec go (p : Typedtree.pattern) =
    match p.pat_desc with
    | Typedtree.Tpat_var (id, _) -> acc := id :: !acc
    | Typedtree.Tpat_alias (sub, id, _) ->
      acc := id :: !acc;
      go sub
    | Typedtree.Tpat_tuple ps -> List.iter go ps
    | _ -> ()
  in
  go p;
  List.rev !acc

let rec collect_globals ~prefix globals (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            List.iter
              (fun id ->
                Hashtbl.replace globals (Ident.unique_name id)
                  (prefix ^ "." ^ Ident.name id))
              (pattern_idents vb.vb_pat))
          vbs
      | Typedtree.Tstr_module mb -> collect_globals_module ~prefix globals mb
      | Typedtree.Tstr_recmodule mbs ->
        List.iter (collect_globals_module ~prefix globals) mbs
      | _ -> ())
    str.str_items

and collect_globals_module ~prefix globals (mb : Typedtree.module_binding) =
  match mb.mb_id with
  | None -> ()
  | Some id -> (
    let prefix = prefix ^ "." ^ Ident.name id in
    match module_structure mb.mb_expr with
    | Some str -> collect_globals ~prefix globals str
    | None -> ())

and module_structure (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_structure str -> Some str
  | Typedtree.Tmod_constraint (me, _, _, _) -> module_structure me
  | _ -> None

let rec collect_items ~unit_name ~prefix ~globals (str : Typedtree.structure)
    ~bindings ~types =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let name =
              match pattern_idents vb.vb_pat with
              | [ id ] -> prefix ^ "." ^ Ident.name id
              | _ ->
                let line, _ = line_col vb.vb_loc in
                Printf.sprintf "%s.(init@%d)" prefix line
            in
            bindings :=
              summarize_binding ~unit_name ~globals ~name vb :: !bindings)
          vbs
      | Typedtree.Tstr_type (_, decls) ->
        List.iter
          (fun (d : Typedtree.type_declaration) ->
            match d.typ_kind with
            | Typedtree.Ttype_variant cons ->
              let ty_cons =
                List.map
                  (fun (c : Typedtree.constructor_declaration) ->
                    let line, col = line_col c.cd_loc in
                    {
                      c_name = Ident.name c.cd_id;
                      c_line = line;
                      c_col = col;
                    })
                  cons
              in
              types :=
                { ty_name = prefix ^ "." ^ Ident.name d.typ_id; ty_cons }
                :: !types
            | _ -> ())
          decls
      | Typedtree.Tstr_module mb -> (
        match mb.mb_id with
        | None -> ()
        | Some id -> (
          match module_structure mb.mb_expr with
          | Some sub ->
            collect_items ~unit_name ~prefix:(prefix ^ "." ^ Ident.name id)
              ~globals sub ~bindings ~types
          | None -> ()))
      | _ -> ())
    str.str_items

let summarize (u : Typed_loader.unit_info) =
  let globals = Hashtbl.create 64 in
  collect_globals ~prefix:u.modname globals u.structure;
  let bindings = ref [] and types = ref [] in
  collect_items ~unit_name:u.modname ~prefix:u.modname ~globals u.structure
    ~bindings ~types;
  let values, poly, lsn_arith =
    collect_sites ~unit_name:u.modname u.structure
  in
  {
    u_modname = u.modname;
    u_source = u.source;
    u_bindings = List.rev !bindings;
    u_types = List.rev !types;
    u_values = values;
    u_poly = poly;
    u_lsn_arith = lsn_arith;
  }
