#!/usr/bin/env bash
# Build the ThreadSanitizer preset and run the concurrency-bearing test
# suites under it: the worker pool (chunked atomic work claiming), the
# Monte-Carlo batch runner (per-worker clones + shared reduction buffers),
# and the sharded single-circuit engine (each wavefront step's blocks pull
# upstream transitions from the run's shared traces, then append to their
# own). Any data-race report aborts the offending test
# (-fno-sanitize-recover=all), so a green run means TSan sees no races on
# these paths.
#
# The threaded suites are selected by test-name regex rather than running
# everything: the full suite under TSan multiplies runtime ~10x for files
# that never spawn a thread.
#
#   $ tools/run_tsan_tests.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)" \
  --target charlie_test_util charlie_test_sim charlie_test_cell
ctest --preset tsan -j1 \
  -R 'ThreadPool|BatchRunner|ShardedCircuit|NetlistGen|WireTableCache|CrossMode' "$@"
