#!/usr/bin/env bash
# Local CI: configure + build + test the configurations that matter —
#   release    Release (what the benchmarks and reproduction harnesses use)
#   asan       Debug + AddressSanitizer  (XDBFT_SANITIZE=address)
#   tsan       Debug + ThreadSanitizer   (XDBFT_SANITIZE=thread; exercises
#              the parallel enumerator / task-pool / advisor-service
#              concurrent-request tests for data races)
#   ubsan      Debug + UndefinedBehaviorSanitizer (XDBFT_SANITIZE=undefined,
#              plus float-cast-overflow; any finding aborts the test)
#
# Usage: tools/ci.sh [JOBS] [--config release|asan|tsan|ubsan]
#        [--quick]
#        [--jobs N]
#        tools/ci.sh --print-ctest-args CONFIG
#   no --config     run release + asan + tsan + ubsan (full matrix)
#   --quick         run only the tier1-labelled tests (skips bench-smoke)
#   JOBS / --jobs   parallelism (default: nproc)
#   --print-ctest-args CONFIG
#                   print the ctest label selection for CONFIG and exit —
#                   the single source of truth the GitHub workflow's test
#                   steps read, so the label lists cannot drift between
#                   local runs and CI.
set -euo pipefail

cd "$(dirname "$0")/.."

# Per-config ctest label selection (shared with .github/workflows/ci.yml
# via --print-ctest-args):
#   release          everything except the long fuzz leg (tier1 +
#                    bench-smoke; the fuzz sweep runs as its own CI step)
#   asan/tsan/ubsan  fast tier only — the sanitizer payload is the
#                    concurrency test suite, not the bench harnesses
ctest_args_for() {
  case "$1" in
    release)               echo "-LE fuzz" ;;
    asan|tsan|ubsan)       echo "-L tier1" ;;
    *) echo "unknown config '$1' (release|asan|tsan|ubsan)" >&2
       return 2 ;;
  esac
}

JOBS="$(nproc)"
CONFIG="all"
QUICK=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --config) CONFIG="$2"; shift 2 ;;
    --quick)  QUICK=1; shift ;;
    --jobs)   JOBS="$2"; shift 2 ;;
    --print-ctest-args) ctest_args_for "$2"; exit $? ;;
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    [0-9]*)   JOBS="$1"; shift ;;   # positional JOBS, kept for compat
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

run_config() {
  local name="$1"; shift
  local dir="build-ci-${name}"
  local ctest_args
  if [[ "${QUICK}" == 1 ]]; then
    ctest_args="-L tier1"
  else
    ctest_args="$(ctest_args_for "${name}")"
  fi
  echo "=== configuring ${dir} ($*) ==="
  cmake -B "${dir}" -S . "$@"
  echo "=== building ${dir} (-j${JOBS}) ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== testing ${dir} (${ctest_args}) ==="
  # shellcheck disable=SC2086  # ctest_args is a flag list by construction
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" ${ctest_args}
}

case "${CONFIG}" in
  release|all)
    run_config release -DCMAKE_BUILD_TYPE=Release ;;&
  asan|all)
    run_config asan -DCMAKE_BUILD_TYPE=Debug \
      -DXDBFT_SANITIZE=address ;;&
  tsan|all)
    run_config tsan -DCMAKE_BUILD_TYPE=Debug \
      -DXDBFT_SANITIZE=thread ;;&
  ubsan|all)
    run_config ubsan -DCMAKE_BUILD_TYPE=Debug \
      -DXDBFT_SANITIZE=undefined ;;&
  release|asan|tsan|ubsan|all) ;;
  *) echo "unknown --config '${CONFIG}' (release|asan|tsan|ubsan)" >&2
     exit 2 ;;
esac

echo "=== CI passed (${CONFIG}) ==="
