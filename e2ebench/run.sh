#!/usr/bin/env bash
# Builds the end-to-end benchmark and llvmd from the source in this
# checkout, then runs it from the checkout root:
#
#   bash e2ebench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash e2ebench/run.sh diff OLD NEW
#
# Build output goes to .bench_build; dune progress goes to stderr, so the
# result line is the last line of standard output.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "e2ebench: no repository sources here; run from a full checkout" >&2
  exit 2
fi
export DUNE_CACHE=disabled XDG_CACHE_HOME="$PWD/.bench_build/.cache"
dune build --root . --build-dir .bench_build ./e2ebench/e2e.exe ./bin/llvmd.exe 1>&2
exec .bench_build/default/e2ebench/e2e.exe "$@"
