#!/bin/sh
# Builds the placer and the benchmark from the checkout's sources, then
# runs one workload:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the result is the last line of stdout.
set -e
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# Build inside the checkout only: no shared dune cache.
DUNE_CACHE=disabled dune build --root . --display quiet ./bin/place.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
