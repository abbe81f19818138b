#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash hostbench/run.sh --workload du_stream --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; a failed build exits non-zero before
# anything reaches stdout.  See hostbench/WORKLOADS.md.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
dune build --root . ./hostbench/main.exe 1>&2
exec ./_build/default/hostbench/main.exe "$@"
