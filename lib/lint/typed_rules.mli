(** The rule set: pure functions over {!Typed_summary} summaries and the
    list of sources on disk.

    Path-scoped rules (scope and allowlists are fixed constants; paths are
    repo-root-relative logical paths such as [lib/core/database.ml]):
    - [determinism] — no [Unix.*], [Sys.time], [Random.*] or
      [Hashtbl.hash] in sim code ([lib/], [bin/], [bench/]);
      [lib/perf/clock.ml] is the one wall-clock gateway.  Names are
      resolved, so [open Unix] cannot hide a [gettimeofday].
    - [stable-iteration] — no [Hashtbl.iter]/[Hashtbl.fold] in modules
      that feed JSON/trace/series output ([lib/obs], [lib/vopr],
      [lib/recorder], [lib/harness/report.ml]); [lib/obs/stable.ml] is the
      audited exception.
    - [lsn-arith] — no [Stdlib] integer arithmetic on an LSN-carrying
      operand (the shallow test of {!Typed_summary.unit_summary.u_lsn_arith})
      outside [lib/wal/lsn.ml].
    - [mli-coverage] — every [lib/**/*.ml] has a matching [.mli].
    - [uncompiled] — every [.ml] under the scanned roots has a [.cmt]: a
      file that does not compile, or that no dune stanza builds, would
      otherwise escape every rule.

    Call-graph and coverage rules (over the units in {!config.lib_scope}
    only, so test code neither triggers nor satisfies them):
    - [typed-hot-alloc] — walks the call graph from the hot-entry-point
      manifest ({!config.hot_roots}); any reachable allocation site or
      call to a blocklisted allocating external is a finding.  Escape
      hatch: [@alloc_ok "reason"] on the expression (or [@@alloc_ok] on
      the binding).  A manifest entry that no longer resolves is itself a
      finding, so the manifest cannot rot silently.
    - [typed-sim-global] — no top-level mutable state unless the binding
      carries [@@sim_global] (with a comment giving the reason).
    - [typed-describe-coverage] — every constructor of each type in
      {!config.describe_checks} must be matched by the paired function.
    - [typed-event-emit] — every constructor of each type in
      {!config.emit_checks} must be built somewhere outside the type's
      defining directory.

    And over every unit:
    - [typed-poly-compare] — no [Stdlib.compare]/[=]/[<]/... applied at a
      protocol type ({!config.poly_types}) or any other type its module
      defines ([Member_id.Set.t], [Pg_id.Map.t]), including through a
      tuple or constructor operand; the defining module is exempt. *)

type config = {
  hot_roots : string list;
  lib_scope : string -> bool;
      (** Logical source paths the call-graph and coverage rules see. *)
  describe_checks : (string * string) list;
  emit_checks : (string * string) list;
  poly_types : string list;
}

val default : config
(** The production manifest for this repo (see DESIGN.md §6);
    [lib_scope] is [lib/]. *)

val catalogue : (string * string) list
(** (rule id, one-line description) for [aurora_lint --rules]: every check,
    once. *)

val run :
  config ->
  sources:string list ->
  Typed_summary.unit_summary list ->
  Finding.t list
(** All rules over all units; [sources] are the logical paths of the
    [.ml]/[.mli] files on disk under the scanned roots (the source-set
    rules read only these).  Unsorted; the engine sorts. *)
