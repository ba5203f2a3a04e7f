#!/bin/sh
# Tier-1 gate: build everything and run the full test suite, refusing to
# proceed if build artefacts have been staged (the repo must never track
# _build/; see .gitignore).
set -eu

cd "$(dirname "$0")/.."

# --diff-filter=d: staged deletions of _build/ files are fine (that's the
# cleanup); staged additions/modifications are not.
staged_build=$(git diff --cached --name-only --diff-filter=d | grep '^_build/' || true)
if [ -n "$staged_build" ]; then
  echo "error: _build/ files are staged for commit:" >&2
  echo "$staged_build" | head -5 >&2
  echo "run: git restore --staged _build/" >&2
  exit 1
fi

dune build @all

# Static-analysis gate: aurora_lint reads the compiler's .cmt trees for
# every .ml under lib/ bin/ bench/ test/ and fails on any finding not
# frozen in lint/baseline.txt: determinism, stable iteration, raw LSN
# arithmetic, interface coverage, uncompiled sources, hot-path allocation
# (call graph from the hot-entry manifest), sim-state purity, protocol/event
# constructor coverage, and type-resolved polymorphic compare (DESIGN.md
# §6).  Runs before the runtime determinism gate because it rejects the
# *root causes* the byte diff below can only catch probabilistically.
dune build @lint

dune runtest

# Benchmark smoke: short runs of the repo benchmark (perfbench/, see
# perfbench/README.md).  It exits non-zero if any of its durability,
# determinism or catalog checks fails, so tier-1 still drives a benchmark
# end to end.  read_miss adds buffer-cache eviction and storage GC under a
# cache far smaller than the working set.
dune build ./perfbench/main.exe
./_build/default/perfbench/main.exe --workload oltp_write --seed 1 --seconds 1 >/dev/null
./_build/default/perfbench/main.exe --workload read_miss --seed 1 --seconds 1 >/dev/null

# VOPR smoke: three short curated fault scenarios, a digest-determinism
# double-run, and a 25-seed nemesis mini-swarm — every run must end with
# zero semantic-invariant violations (see DESIGN.md section 7).
dune build @vopr-smoke

# Flight-recorder smoke: force a curated scenario to fail, shrink it, and
# verify the repro artifact carries recorder rings whose explain output is
# byte-deterministic and covers send -> ack -> VCL advance -> commit ack
# (see DESIGN.md section 8).
dune build @recorder-smoke

# Determinism gate: the whole sim (including the observability sampler
# and time-series decimation) must be byte-identical across reruns of the
# same seed.  Any nondeterminism (hash-order iteration, wall-clock
# leakage, unseeded randomness) shows up here as a byte diff.  smoke runs
# with the flight recorder off; the obs rerun has it on, so the recorder's
# trace tail is held to the same standard.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
same_twice() {
  dune exec --no-build bin/aurora_cli.exe -- "$@" > "$tmpdir/a.json"
  dune exec --no-build bin/aurora_cli.exe -- "$@" > "$tmpdir/b.json"
  if ! cmp -s "$tmpdir/a.json" "$tmpdir/b.json"; then
    echo "error: '$*' is not deterministic across reruns" >&2
    diff "$tmpdir/a.json" "$tmpdir/b.json" | head -10 >&2
    exit 1
  fi
}
same_twice smoke --json --seed 7
same_twice obs --json --trace-tail 200 --seed 7

echo "check.sh: all green (determinism gate: byte-identical reruns)"
