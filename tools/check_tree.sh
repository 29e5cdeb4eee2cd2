#!/usr/bin/env bash
# Pre-commit tree gate: repo hygiene + full configure/build/ctest.
#
#   tools/check_tree.sh                # hygiene + build + tests
#   tools/check_tree.sh --hygiene-only # just the fast tracked-file checks
#
# Hygiene: no build tree (build*/) may be tracked by git -- PR 3
# accidentally committed 641 build artifacts, this keeps them out for good.
# The determinism lint (tools/lint_determinism.sh) rides along: src/ must
# stay free of nondeterminism sources (bare rand(), std::random_device,
# wall-clock seeding, unordered-container iteration) and of runtime CPU
# dispatch (__builtin_cpu_supports, target attributes), which would make
# results depend on the host CPU.
#
# Warnings: the Release build must compile the project's own code without
# one. A `warning:` line for a file under src/, examples/ or tools/ fails
# the gate; reports from toolchain headers (GCC 12's -Wrestrict in
# char_traits.h on string concatenation in tests and benches) do not. Only
# the files a build compiles print their warnings, so an incremental build
# checks what changed and a fresh checkout (CI) checks every file. The
# build output is kept in build/check_tree.build.log.
set -euo pipefail
cd "$(dirname "$0")/.."

tracked_build=$(git ls-files | grep -E '^build[^/]*/' || true)
if [[ -n "$tracked_build" ]]; then
  echo "error: build trees are tracked by git (extend .gitignore, then" >&2
  echo "       git rm -r --cached <dir>):" >&2
  echo "$tracked_build" | head -10 >&2
  exit 1
fi

tools/lint_determinism.sh

if [[ "${1:-}" == "--hygiene-only" ]]; then
  echo "check_tree: hygiene OK"
  exit 0
fi

cmake --preset release
build_log=build/check_tree.build.log
cmake --build --preset release -j"$(nproc)" 2>&1 | tee "$build_log"
root=$(pwd -P | sed 's/[][\\.*^$()+?{}|]/\\&/g')
own_warnings=$(grep -E "^(${root}/|(\.\./)*)(src|examples|tools)/[^:]+:[0-9]+:([0-9]+:)? warning:" \
  "$build_log" || true)
if [[ -n "$own_warnings" ]]; then
  echo "error: the Release build warns in src/, examples/ or tools/:" >&2
  echo "$own_warnings" >&2
  exit 1
fi
ctest --test-dir build --output-on-failure -j"$(nproc)"
echo "check_tree: OK"
