#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it.  Run from the
# repository root; every argument is passed to e2e.exe, e.g.
#   bash bench/e2e/run.sh --workload cold-sample --seed 1 --seconds 25 --trace 0
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/e2e/e2e.ml ]; then
  echo "run.sh: run from the repository root (dune-project, lib/ and bench/e2e/ are needed)" >&2
  exit 2
fi

# Keep every build artifact and temporary file inside the checkout.
export XDG_CACHE_HOME="$PWD/_build/.cache"
export TMPDIR="$PWD/_build/.tmp"
mkdir -p "$TMPDIR"
dune build --root . --cache=disabled --display=quiet ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
