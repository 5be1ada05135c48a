#!/usr/bin/env bash
# The repository benchmark's one command (see benchmark/README.md).
#
#   bash benchmark/run.sh                 # all four workloads, end to end
#   bash benchmark/run.sh --trace         # all four workloads, traced
#   bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# Builds build-bench/ (Release) from this checkout, then runs each workload as
# its own puffer_bench process so that peak_rss_mb belongs to that workload.
# Results land in build-bench/results/ (override with PUFFER_BENCH_RESULTS).
# Exits non-zero if the build fails or any audited output differs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: no repository sources next to benchmark/ in $root" >&2
  exit 2
fi

build=build-bench
results="${PUFFER_BENCH_RESULTS:-$build/results}"
jobs="$(nproc)"
jobs=$(( jobs < 4 ? jobs : 4 ))
mkdir -p "$build"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  if ! cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release \
      > "$build/configure.log" 2>&1; then
    tail -n 40 "$build/configure.log" >&2
    exit 1
  fi
fi
if ! cmake --build "$build" --target puffer_bench -j "$jobs" \
    > "$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  exit 1
fi

commit=unknown
if [[ -e .git ]]; then
  commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi
run() {
  "$build/puffer_bench" --out "$results" --commit "$commit" "$@"
}

if [[ $# -eq 0 || ( $# -eq 1 && "$1" == "--trace" ) ]]; then
  status=0
  for workload in fleet-mixed fleet-bba fleet-contention campaign; do
    run --workload "$workload" "$@" || status=1
  done
  exit "$status"
fi
run "$@"
