#!/usr/bin/env bash
# Single local entry point for the static-analysis layers
# (docs/STATIC_ANALYSIS.md):
#
#   1. whole-program analyzer — scripts/analysis/ self-tests, then the
#      layering gate, the routing_reachable.json freshness check and the
#      shipping gate (src/ functions only tests reach need an allowlist
#      entry in scripts/analysis/shipping.json)
#   2. determinism lint  — scripts/lint/ self-tests, then the live tree
#      (scope = prefix floor ∪ the reachability artifact); includes the
#      atomics-discipline rules (implicit seq_cst, volatile,
#      store-without-notify on waited atomics)
#   3. strict warnings   — HP_STRICT build (-Werror) in build-strict/
#   4. thread safety     — fixture census + clang -Wthread-safety -Werror
#      build in build-tsafety/ (clang-only)
#   5. clang-tidy        — over build-strict/compile_commands.json
#   6. phase effects     — scripts/analysis/phase_effects.py self-tests,
#      live-engine contract check, and phase_effects.json freshness
#   7. atomics fixtures  — exercised inside the layer-2 self-tests; listed
#      here because docs/STATIC_ANALYSIS.md numbers them separately
#   8. model checker     — exhaustive bounded-schedule exploration of
#      BasicPhaseBarrier<ModelSync> plus the buggy-protocol fixture corpus
#      (tests/model/, built by the strict build)
#
# plus a clang-format check when the binary exists. Layers whose tool is not
# installed are SKIPPED with a notice (the container bakes in gcc + python3
# only; CI runs every layer). Any executed layer failing fails the script,
# the summary lists the failed layers by name, and every executed layer
# reports its wall-clock seconds in the summary timing table.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  cat <<'EOF'
usage: scripts/run_static_analysis.sh [--quick] [--no-tidy] [--help]

  --quick    analyzers + lints + freshness + format check only
             (no builds, no tidy)
  --no-tidy  skip the clang-tidy layer even if clang-tidy is installed
  --help     show this message
EOF
}

QUICK=0
NO_TIDY=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --no-tidy) NO_TIDY=1 ;;
    -h|--help) usage; exit 0 ;;
    *) echo "unknown option: $arg" >&2; usage >&2; exit 2 ;;
  esac
done

failures=0
FAILED=()
CURRENT=""
LAYER_NAMES=()
LAYER_SECS=()
LAYER_START=0
close_layer() {
  if [ -n "$CURRENT" ]; then
    LAYER_NAMES+=("$CURRENT")
    LAYER_SECS+=("$(( $(date +%s) - LAYER_START ))")
  fi
}
layer() {
  close_layer
  echo; echo "=== $* ==="
  CURRENT="$*"
  LAYER_START=$(date +%s)
}
fail_layer() {
  failures=$((failures + 1))
  # A layer with several commands is listed once.
  if [ "${#FAILED[@]}" = 0 ] \
    || [ "${FAILED[$((${#FAILED[@]} - 1))]}" != "$CURRENT" ]; then
    FAILED+=("$CURRENT")
  fi
}
summary() {
  close_layer
  echo
  echo "layer timings:"
  for i in "${!LAYER_NAMES[@]}"; do
    printf '  %5ss  %s\n' "${LAYER_SECS[$i]}" "${LAYER_NAMES[$i]}"
  done
  echo
  if [ "$failures" != 0 ]; then
    echo "static analysis: ${#FAILED[@]} layer(s) failed:"
    for name in "${FAILED[@]}"; do
      echo "  FAILED: $name"
    done
    exit 1
  fi
  echo "static analysis$1: all executed layers clean"
}

# --- cheapest and most repo-specific layers first ---------------------------
layer "whole-program analyzer: fixture self-tests"
python3 scripts/analysis/test_callgraph.py || fail_layer

layer "layering gate (declared DAG over the include graph)"
python3 scripts/analysis/callgraph.py layering || fail_layer

layer "routing_reachable.json freshness"
python3 scripts/analysis/callgraph.py reachable --check || fail_layer

layer "shipping gate (src/ reached by shipped binaries or allowlisted)"
python3 scripts/analysis/callgraph.py shipping --check || fail_layer

layer "determinism lint: fixture self-tests"
python3 scripts/lint/test_determinism_lint.py || fail_layer

layer "determinism lint: live tree (call-graph-scoped)"
python3 scripts/lint/determinism_lint.py --root . || fail_layer

layer "phase-effects analyzer: fixture self-tests"
python3 scripts/analysis/test_phase_effects.py || fail_layer

layer "phase-effects contracts: live engine"
python3 scripts/analysis/phase_effects.py check || fail_layer

layer "phase_effects.json freshness"
python3 scripts/analysis/phase_effects.py artifact --check || fail_layer

layer "bench_compare: self-test"
python3 scripts/bench_compare.py --self-test || fail_layer

# --- format check (satellite): check-only, never reformats ------------------
layer "clang-format check"
if command -v clang-format >/dev/null 2>&1; then
  git ls-files '*.hpp' '*.cpp' | xargs clang-format --dry-run -Werror \
    || fail_layer
else
  echo "SKIPPED: clang-format not installed"
fi

if [ "$QUICK" = 1 ]; then
  summary " (quick)"
  exit 0
fi

# --- layer 2: strict warnings as errors -------------------------------------
layer "strict warnings (HP_STRICT=ON, -Werror)"
mkdir -p build-strict
cmake -B build-strict -S . -DHP_STRICT=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  > build-strict/configure.log 2>&1 \
  || { cat build-strict/configure.log; fail_layer; }
cmake --build build-strict -j "$(nproc)" || fail_layer

# --- layer 8: concurrency model checker --------------------------------------
# Exhaustive bounded exploration is deterministic and finite, but cap the
# wall time anyway so a state-space regression fails loudly instead of
# wedging the run. The binaries come out of the strict build above.
layer "model checker (bounded exhaustive schedules, tests/model/)"
MODEL_BIN_DIR=build-strict/tests/model
if [ -x "$MODEL_BIN_DIR/model_fixtures_test" ] \
  && [ -x "$MODEL_BIN_DIR/model_barrier_test" ]; then
  timeout 900 "$MODEL_BIN_DIR/model_fixtures_test" || fail_layer
  timeout 900 "$MODEL_BIN_DIR/model_barrier_test" || fail_layer
else
  echo "model test binaries missing from $MODEL_BIN_DIR (strict build broken?)"
  fail_layer
fi

# --- thread-safety: fixtures + whole-tree clang build -----------------------
layer "thread safety (-Wthread-safety -Werror, clang-only)"
python3 scripts/analysis/test_thread_safety.py || fail_layer
if command -v clang++ >/dev/null 2>&1; then
  mkdir -p build-tsafety
  cmake -B build-tsafety -S . -DHP_THREAD_SAFETY=ON \
    -DCMAKE_CXX_COMPILER=clang++ \
    > build-tsafety/configure.log 2>&1 \
    || { cat build-tsafety/configure.log; fail_layer; }
  cmake --build build-tsafety -j "$(nproc)" || fail_layer
else
  echo "SKIPPED: whole-tree thread-safety build needs clang++"
fi

# --- clang-tidy over the exported compilation database ----------------------
layer "clang-tidy"
if [ "$NO_TIDY" = 1 ]; then
  echo "SKIPPED: --no-tidy"
elif command -v clang-tidy >/dev/null 2>&1; then
  clang-tidy --verify-config || fail_layer
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -quiet -p build-strict \
      "$(pwd)/src/" "$(pwd)/bench/" "$(pwd)/examples/" "$(pwd)/tests/" \
      || fail_layer
  else
    git ls-files 'src/*.cpp' 'bench/*.cpp' 'examples/*.cpp' 'tests/*.cpp' \
      | xargs -P "$(nproc)" -n 1 clang-tidy -quiet -p build-strict \
      || fail_layer
  fi
else
  echo "SKIPPED: clang-tidy not installed"
fi

summary ""
