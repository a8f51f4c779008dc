#!/usr/bin/env bash
# Reproduce everything: build, run the full test suite, then every
# experiment harness, teeing outputs to test_output.txt / bench_output.txt.
#
# -e (with pipefail) makes every stage gating: a failing build, a failing
# ctest run, or a crashing bench harness aborts the script with a nonzero
# exit instead of silently reporting success at the end.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  cat <<'EOF'
usage: scripts/reproduce.sh [--dry-run] [--help]

Builds the tree, runs the full ctest suite, then every bench harness,
teeing outputs to test_output.txt / bench_output.txt. Any failure aborts
with a nonzero exit.

  -n, --dry-run  print the stages without executing anything
  -h, --help     show this message
EOF
}

DRY=0
for arg in "$@"; do
  case "$arg" in
    -n|--dry-run) DRY=1 ;;
    -h|--help) usage; exit 0 ;;
    *) echo "unknown option: $arg" >&2; usage >&2; exit 2 ;;
  esac
done

if [ "$DRY" = 1 ]; then
  echo "would run: cmake -B build"
  echo "would run: cmake --build build"
  echo "would run: ctest --test-dir build  (tee test_output.txt)"
  echo "would run: build/bench/*           (tee bench_output.txt)"
  exit 0
fi

cmake -B build
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

: > bench_output.txt
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "===== $(basename "$b") =====" | tee -a bench_output.txt
  "$b" 2>&1 | tee -a bench_output.txt
done

echo "done — see test_output.txt and bench_output.txt"
