(** Per-module summaries extracted from typed trees.

    One pass over each unit's typedtree produces, per top-level binding:
    direct allocation sites (with [@alloc_ok] suppression applied),
    referenced global names (the interprocedural call-graph edges),
    constructors matched in patterns and built in expressions, and
    mutable-state evidence.  A second pass over the whole unit (functor
    bodies and top-level effects included) records its sites: external
    value references, polymorphic comparisons, and raw arithmetic on
    LSN-carrying operands.  The rules in {!Typed_rules} are pure functions
    over these summaries, which keeps them unit-testable without
    compiler-libs plumbing. *)

type alloc = { a_line : int; a_col : int; a_desc : string }

type ref_use = {
  r_name : string;  (** Normalized dotted name, e.g. ["Simcore.Heap.push"]. *)
  r_line : int;
  r_col : int;
  r_suppressed : bool;  (** Occurrence sits under an [@alloc_ok] subtree. *)
}

type con_use = { cu_ty : string; cu_con : string }

type site = {
  s_line : int;
  s_col : int;
  s_name : string;  (** Resolved dotted name, e.g. ["Stdlib.Random.int"]. *)
}

type poly_hit = {
  p_line : int;
  p_col : int;
  p_op : string;
  p_tys : string list;
      (** Head types of the operands and, through tuples and constructor
          arguments, of their parts; qualified, sorted. *)
}

type binding = {
  b_name : string;  (** Qualified, e.g. ["Simcore.Sim.schedule_at"]. *)
  b_line : int;
  b_col : int;
  b_is_function : bool;
  b_allocs : alloc list;
      (** Direct allocation sites, [@alloc_ok] subtrees excluded; empty for
          bindings carrying [@@alloc_ok]. *)
  b_refs : ref_use list;  (** One entry per distinct referenced name. *)
  b_pat_cons : con_use list;  (** Constructors this binding matches on. *)
  b_exp_cons : con_use list;  (** Constructors this binding builds. *)
  b_mutable_evidence : (int * int * string) option;
      (** First sign the binding creates mutable storage (ref/table/array). *)
  b_sim_global : bool;  (** Carries [@@sim_global]. *)
}

type tycon = { c_name : string; c_line : int; c_col : int }
type tydecl = { ty_name : string; ty_cons : tycon list }

type unit_summary = {
  u_modname : string;
  u_source : string;
  u_bindings : binding list;
  u_types : tydecl list;  (** Variant declarations, qualified names. *)
  u_values : site list;
      (** Every reference to a module-qualified value (after [open]s are
          resolved), in source order. *)
  u_poly : poly_hit list;  (** Polymorphic-compare applications, typed. *)
  u_lsn_arith : site list;
      (** [Stdlib] [+ - * / mod] applied to an operand that looks
          LSN-carrying: an identifier whose path mentions [Lsn] (other than
          [pp]/[to_string]), an application headed by one, or a type
          constraint mentioning [Lsn].  [s_name] is the operator. *)
}

val summarize : Typed_loader.unit_info -> unit_summary

val allocating_external : string -> bool
(** Is this (normalized, dotted) name on the known-allocating-externals
    blocklist — list/string builders, boxing conversions, formatting,
    option-wrapping lookups?  Stdlib-internal amortized growth (e.g.
    [Hashtbl.replace] resizing) and float boxing are documented
    out-of-scope (DESIGN.md §6). *)
