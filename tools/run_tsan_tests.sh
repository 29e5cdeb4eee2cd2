#!/usr/bin/env bash
# Build the ThreadSanitizer preset and run the concurrency-bearing test
# suites under it: the worker pool (chunked atomic work claiming), the
# Monte-Carlo batch runner (per-worker clones + shared reduction buffers),
# and the sharded single-circuit engine (a dataflow scheduler hands
# (block, window) tasks to workers waiting on one condition variable; each
# task pulls upstream transitions from the run's shared traces under the
# upstream blocks' reader-writer locks while those blocks may append, then
# appends to its own nets under its block's). Any data-race report aborts
# the offending test (-fno-sanitize-recover=all), so a green run means TSan
# sees no races on these paths. A lost wake-up shows as a hang instead:
# CI repeats the sharded suites with `--repeat until-fail:5 --timeout 300`,
# which extra ctest args pass through here too.
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
