#!/bin/sh
# Build fodb and the benchmark from source, then run the benchmark.
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   sh perfbench/run.sh --self-test
# Run from the root of a checkout of the repository.  Work files go to
# .perfbench_work/ there.
set -e
if [ ! -f dune-project ] || [ ! -f bin/fodb.ml ] || [ ! -f perfbench/bench.ml ]; then
  echo "perfbench: run from the root of a full checkout (dune-project, bin/, lib/)" >&2
  exit 2
fi
dune build --root . ./bin/fodb.exe ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe --fodb _build/default/bin/fodb.exe \
  --work .perfbench_work "$@"
