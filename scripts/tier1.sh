#!/usr/bin/env bash
# Tier-1 gate: lint, then full build + full test suite (lock-rank deadlock
# detector armed), then the concurrency-labelled stress tests and the
# recovery-labelled journal tests again under ThreadSanitizer, the
# recovery-labelled journal/crash tests under Address+UB sanitizer, and the
# whole suite once more under UBSan alone (separate build trees so
# instrumented objects never mix). Each leg is timed; the summary at the
# end shows where the wall-clock went.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

# --- per-leg timing -------------------------------------------------------
leg_names=()
leg_secs=()
leg_start=$SECONDS
leg() {
  # leg <name>: close out the previous leg (if any) and start a new one.
  if [[ -n "${leg_current:-}" ]]; then
    leg_names+=("${leg_current}")
    leg_secs+=($((SECONDS - leg_start)))
  fi
  leg_current="$1"
  leg_start=$SECONDS
  echo "== tier1: $1 =="
}
leg_summary() {
  leg_names+=("${leg_current}")
  leg_secs+=($((SECONDS - leg_start)))
  echo "== tier1: leg timings =="
  local i total=0
  for i in "${!leg_names[@]}"; do
    printf '   %4ds  %s\n' "${leg_secs[$i]}" "${leg_names[$i]}"
    total=$((total + leg_secs[i]))
  done
  printf '   %4ds  total\n' "${total}"
}

leg "lint (nest-lint rule catalog + clang-tidy)"
# Runs before any build leg so cheap findings fail fast; nest-lint
# bootstraps itself from source if no built binary exists, clang-tidy
# skips itself gracefully when not installed.
scripts/lint.sh

leg "configure + build (default preset)"
cmake --preset default
cmake --build --preset default -j "${JOBS}"

leg "full test suite (lock-rank detector armed)"
NEST_LOCKRANK=1 ctest --preset default

leg "ThreadSanitizer pass over concurrency/recovery/obs/conformance/chaos/cluster/scale/hsm tests"
cmake --preset tsan
# Only the labelled binaries need instrumenting; keeps the tsan tree cheap.
cmake --build --preset tsan -j "${JOBS}" \
  --target transfer_core_test storage_test transfer_test journal_test \
          obs_test conformance_test chaos_test cluster_test scale_test \
          loadgen_test hsm_test
TSAN_OPTIONS="halt_on_error=1" ctest --preset tsan

leg "AddressSanitizer pass over recovery/obs/conformance/fault/chaos/cluster/scale/hsm tests"
cmake --preset asan
# Only the labelled binaries need instrumenting.
cmake --build --preset asan -j "${JOBS}" \
  --target journal_test obs_test conformance_test fault_test chaos_test cluster_test \
          scale_test loadgen_test hsm_test
ASAN_OPTIONS="halt_on_error=1" ctest --preset asan

leg "UBSan pass over the full suite"
cmake --preset ubsan
cmake --build --preset ubsan -j "${JOBS}"
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" ctest --preset ubsan

leg_summary
echo "== tier1: OK =="
