#!/usr/bin/env bash
# Tier-1 verification: build and run the full test suite, normally and
# under ASan+UBSan (the `asan-ubsan` CMake preset / STONNE_SANITIZE).
#
#   scripts/check.sh          # plain build + ctest, then sanitized run
#   scripts/check.sh --plain  # skip the sanitized pass
#
# Both builds compile with -Werror, so a new warning fails the check.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)

echo "== plain build =="
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j "$jobs"
(cd build && ctest --output-on-failure -j "$jobs")

if [[ "${1:-}" == "--plain" ]]; then
    exit 0
fi

echo "== ASan+UBSan build =="
cmake -B build-asan -S . -DSTONNE_SANITIZE=address+undefined \
    -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-asan -j "$jobs"
(cd build-asan && ctest --output-on-failure -j "$jobs")
