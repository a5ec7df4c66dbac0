#!/usr/bin/env bash
# Builds the end-to-end benchmark driver (Release, in bench/e2e/build) and
# runs it from the repository root.
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--smoke]
#
# Without --workload every workload runs in turn. Each prints one
# "workload metric value unit" line per metric and ends with a JSON result
# line; the script exits non-zero if a build fails or any check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$here/build"

# Build output goes to stderr: stdout carries only metrics.
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target e2e_driver -j "$(nproc)" >&2

cd "$root"
# The driver runs as a child, not through exec: rss_mb reads the peak RSS
# of the driver's reaped children, which after an exec would include the
# compiler this script ran.
for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    "$build/e2e_driver" "$@"
    exit
  fi
done

status=0
for workload in wide-query large-lake join-distributed; do
  "$build/e2e_driver" --workload "$workload" "$@" || status=1
done
exit "$status"
