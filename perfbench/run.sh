#!/usr/bin/env bash
# Build the serving benchmark from this checkout's sources and run it.
#
#   bash perfbench/run.sh --workload search --seed 1 --seconds 10 --trace 0
#
# Must be started from the root of a checkout. Build output goes to
# _build/, run files to .perfbench/ (both ignored by git). Exits
# non-zero without a result when the sources are not there or the
# build fails.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the root of a tix checkout" >&2
  exit 2
fi
dune build --root . --profile release --cache=disabled ./perfbench/tixbench.exe >&2
exec ./_build/default/perfbench/tixbench.exe "$@"
