#!/usr/bin/env bash
# Sanitizer gate for the test suite:
#   1. an AddressSanitizer build (-DMWSIBE_SANITIZE=address) runs the
#      full ctest suite (LeakSanitizer included);
#   2. a ThreadSanitizer build (-DMWSIBE_SANITIZE=thread) runs the
#      concurrent labels — batch, shard, control, obs, fault — plus
#      concurrency_test.
#
#   tools/sanitize.sh [asan-build-dir] [tsan-build-dir]
#                                        # default build-asan, build-tsan
#
# Exits non-zero on the first failing step. JOBS overrides the build and
# ctest parallelism (default: nproc).

set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
ASAN_BUILD="${1:-$REPO/build-asan}"
TSAN_BUILD="${2:-$REPO/build-tsan}"
JOBS="${JOBS:-$(nproc)}"

build() {
  cmake -B "$1" -S "$REPO" -DMWSIBE_SANITIZE="$2" >/dev/null
  cmake --build "$1" -j "$JOBS"
}

echo "== AddressSanitizer: full suite =="
build "$ASAN_BUILD" address
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  ctest --test-dir "$ASAN_BUILD" --output-on-failure -j "$JOBS"

echo "== ThreadSanitizer: batch, shard, control, obs, fault + concurrency =="
build "$TSAN_BUILD" thread
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
ctest --test-dir "$TSAN_BUILD" --output-on-failure -j "$JOBS" \
      -L 'batch|shard|control|obs|fault'
"$TSAN_BUILD/tests/concurrency_test"

echo "sanitize.sh: ASan full suite and TSan subset clean"
