(** The typed-tier rules: pure functions over {!Typed_summary} summaries.

    - [typed-hot-alloc] — walks the call graph from the hot-entry-point
      manifest ({!config.hot_roots}); any reachable allocation site or
      call to a blocklisted allocating external is a finding.  Escape
      hatch: [@alloc_ok "reason"] on the expression (or [@@alloc_ok] on
      the binding).  A manifest entry that no longer resolves is itself a
      finding, so the manifest cannot rot silently.
    - [typed-sim-global] — no top-level mutable state in sim-scoped
      modules unless the binding carries [@@sim_global] (with a comment
      giving the reason).
    - [typed-describe-coverage] — every constructor of each type in
      {!config.describe_checks} must be matched by the paired function.
    - [typed-event-emit] — every constructor of each type in
      {!config.emit_checks} must be built somewhere outside the type's
      defining directory.
    - [typed-poly-compare] — no [Stdlib.compare]/[=]/[<]/... applied at a
      protocol type ({!config.poly_types}); the defining module is exempt. *)

type config = {
  hot_roots : string list;
  sim_scope : string -> bool;
  describe_checks : (string * string) list;
  emit_checks : (string * string) list;
  poly_types : string list;
}

val default : config
(** The production manifest for this repo (see DESIGN.md §6). *)

val catalogue : (string * string) list
(** (rule id, one-line description) for [aurora_lint --rules]. *)

val run : config -> Typed_summary.unit_summary list -> Finding.t list
(** All rules over all units.  Unsorted; the engine sorts. *)
