(** The lint engine: source discovery, [.cmt] loading, and rule dispatch.

    Every rule runs over the compiler's typed trees, so each scanned source
    must have been compiled first ([dune build @check]); a source with no
    [.cmt] is itself a finding ([uncompiled]).  Paths are turned into
    repo-root-relative logical paths ([../../lib/core/foo.ml] →
    [lib/core/foo.ml]) before rules or reports see them, so findings and
    baseline keys are identical whether the tool runs from the repo root,
    from the dune build context, or from a test directory.

    Directories named [_build], [.git], or [fixtures], and dot-directories,
    are skipped — [fixtures] so that the lint test suite's deliberately
    broken code under [test/lint/fixtures/] never counts against the real
    tree. *)

val sources : string list -> string list
(** The logical paths of all [.ml]/[.mli] files under the given root
    directories (sorted, skip-list applied).  A root that does not exist
    contributes nothing. *)

val units : string list -> Typed_loader.unit_info list
(** Every implementation [.cmt] for the given source roots: read from
    [_build/default/<root>] when that exists (running from the repo root),
    from the root itself otherwise (inside the build context). *)

val lint_units :
  ?config:Typed_rules.config ->
  sources:string list ->
  Typed_loader.unit_info list ->
  Finding.t list
(** Summarize and check an explicit unit list against the given logical
    source paths (tests feed fixture units here).  Sorted and
    deduplicated.  [config] defaults to {!Typed_rules.default}.  Linting
    a set of roots is [lint_units ~sources:(sources roots) (units roots)]. *)
