#!/usr/bin/env bash
# Tier-1 verification gate: configure, build everything (library, every test
# suite, bench and example target), then run the full ctest suite.
# Every PR must keep this green. Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)" "$@"
