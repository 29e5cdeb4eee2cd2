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
cmake --build --preset release -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"
echo "check_tree: OK"
