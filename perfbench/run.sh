#!/bin/sh
# Build the benchmark from this checkout's sources, then run it with the
# given arguments.  Build output goes to stderr so the last line of stdout
# stays the benchmark's JSON result.
set -eu
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled -j 2 --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
