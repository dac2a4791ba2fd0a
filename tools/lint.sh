#!/usr/bin/env bash
# One-command local lint: the same two walls CI's static-analysis job
# runs, degraded gracefully to what the host toolchain has.
#
#   tools/lint.sh [build-dir]
#
#   1. clang-tidy              — if clang-tidy is on PATH (uses the
#                                build dir's compile_commands.json,
#                                configuring one if needed)
#   2. tests/tsa wall          — if clang++ is on PATH (via ctest -L lint)
#
# Exits nonzero on the first wall that fails; prints SKIP for tools the
# host does not have so a partial pass cannot be mistaken for clean.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-"${ROOT}/build"}"

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  if [[ ! -f "${BUILD_DIR}/compile_commands.json" ]]; then
    echo "configuring ${BUILD_DIR} for compile_commands.json..."
    cmake -B "${BUILD_DIR}" -S "${ROOT}" >/dev/null
  fi
  # Headers are covered through HeaderFilterRegex in .clang-tidy; the
  # TU list is every first-party .cpp the build knows about.
  mapfile -t tus < <(python3 - "$BUILD_DIR" <<'EOF'
import json, sys
for entry in json.load(open(sys.argv[1] + "/compile_commands.json")):
    f = entry["file"]
    if "/src/" in f or "/tests/" in f or "/bench/" in f:
        print(f)
EOF
)
  clang-tidy -p "${BUILD_DIR}" --quiet "${tus[@]}"
else
  echo "== clang-tidy == SKIP (clang-tidy not on PATH)"
fi

if command -v clang++ >/dev/null 2>&1; then
  echo "== thread-safety wall (tests/tsa) =="
  if [[ ! -d "${BUILD_DIR}" ]]; then
    cmake -B "${BUILD_DIR}" -S "${ROOT}" >/dev/null
  fi
  ctest --test-dir "${BUILD_DIR}" -L lint --output-on-failure
else
  echo "== thread-safety wall == SKIP (clang++ not on PATH)"
fi

echo "lint.sh: done"
