#!/usr/bin/env bash
# Build muirc and the benchmark from source, then run one benchmark
# invocation from the root of the checkout:
#
#   bash perfbench/run.sh --workload suite-sim|static-check|serve-mix \
#        --seed N --seconds S --trace 0|1
#
# The last line of standard output is the result object.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/baseline.json ]; then
  echo "perfbench: not a source checkout (dune-project, lib/ or bench/baseline.json missing)" >&2
  exit 2
fi
# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe ./bin/muirc.exe 1>&2
# One CPU for the load generator and the daemon it starts: the closed
# loop never runs both at once, and the host-speed reference (calib.ml)
# then samples the CPU the daemon runs on.
pin=()
if command -v taskset >/dev/null 2>&1 && taskset -c 0 true 2>/dev/null; then
  pin=(taskset -c 0)
fi
exec ${pin[@]+"${pin[@]}"} ./_build/default/perfbench/perfbench.exe \
  --muirc ./_build/default/bin/muirc.exe "$@"
