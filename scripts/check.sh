#!/usr/bin/env bash
# One-command correctness gate (DESIGN.md §8): default build + full
# ctest, the TSan concurrency suite, the ASan+UBSan full suite, the
# fr_lint/fr_analyze static passes + runtime lock-order detection
# (DESIGN.md §11), and the operational-fault robustness gate
# (DESIGN.md §10). CI and pre-merge both run exactly this.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

run() {
  echo
  echo "==> $*"
  "$@"
}

# 1. Default build, full test suite (includes the `static` fr_lint
#    tests: self-test fixtures + zero violations over src/ and bench/).
run cmake --preset default
run cmake --build --preset default -j "${JOBS}"
run ctest --preset default -j "${JOBS}" --output-on-failure

# 2. ThreadSanitizer over the concurrency-labelled suite (pool torture,
#    bounded-queue edge cases, parallel-aggregation determinism).
run cmake --preset tsan
run cmake --build --preset tsan -j "${JOBS}"
run ctest --preset tsan -j "${JOBS}"

# 3. ASan+UBSan over the full suite; UB aborts (no recover), so any
#    finding is a hard test failure.
run cmake --preset ubsan
run cmake --build --preset ubsan -j "${JOBS}"
run ctest --preset ubsan -j "${JOBS}"

# 4. Static analysis: fr_lint house rules, then the fr_analyze
#    cross-file passes (direct + call-chain-induced lock-order cycles,
#    sim-time discipline, determinism of parallel reductions and
#    unordered-iteration taint, blocking-under-lock, FR_GUARDED_BY
#    coverage, serdes writer/reader symmetry, unchecked wire counts,
#    wire-schema drift against the committed fingerprints) — self-test
#    first so the fixture proofs gate before the tree run. The tree run
#    diffs against the committed findings baseline: known findings are
#    tolerated, any new one fails. Then the annotation coverage
#    baseline, and a stats snapshot of the analyzer itself into
#    build/BENCH_analysis.json. Explicit invocations for a readable
#    tail even though the default suite already gates on all of it.
run ./build/tools/fr_lint src bench
run ./build/tools/fr_analyze --self-test tools/fr_analyze_fixtures
run ./build/tools/fr_analyze \
  --baseline tools/analysis/findings_baseline.json \
  --schemas tools/analysis/wire_schemas.json \
  src bench tools
run ./build/tools/fr_analyze --coverage \
  --baseline tools/analysis/coverage_baseline.txt src
echo
echo "==> fr_analyze --stats src bench tools (build/BENCH_analysis.json)"
./build/tools/fr_analyze --stats \
  --schemas tools/analysis/wire_schemas.json \
  src bench tools > build/BENCH_analysis.json
cat build/BENCH_analysis.json

# 4b. Runtime lock-order detection: the instrumented-wrapper build runs
#     the concurrency suite with per-thread held stacks + the global
#     acquired-after edge set live; any inversion aborts the test.
run cmake --preset deadlock
run cmake --build --preset deadlock -j "${JOBS}"
run ctest --preset deadlock -j "${JOBS}"

# 5. Robustness gate: the `robustness`-labelled suite (operational
#    faults, degraded coverage, checkpoint/resume determinism, crash
#    states) plus the fault-campaign smoke — one seed of metadata
#    faults + a mid-scan OST crash; exits non-zero on any false
#    positive or missed recall. The crash-matrix smoke then replays a
#    slice of the enumerated-crash + fuzz campaign (DESIGN.md §15):
#    every ground-truthed state must repair to convergence with zero
#    false positives, and raw-bytes fuzzing must stay behind
#    PersistenceError.
run ctest --preset default -j "${JOBS}" -L robustness --output-on-failure
run ./build/bench/fault_campaign --smoke
run ./build/bench/crash_matrix --smoke --out build/BENCH_crash_smoke.json

# 5b. Cluster-life soak smoke: traffic + injected faults + the online
#     checker + checkpointed offline passes on one cluster; exits
#     non-zero if detection, repair convergence, the stale-epoch guard,
#     or degraded-coverage recovery breaks.
run ./build/bench/soak --smoke --out build/BENCH_soak_smoke.json

# 5c. Whole-check benchmark smoke: every workload at its smoke size,
#     traced and untraced. The benchmark's own oracles gate here: every
#     metric BENCHMARK.json names is present and no operation failed.
run python3 perfbench/smoke_test.py

# 6. Kernel-variant smoke: every rank-kernel variant (planned,
#    +reorder, +SIMD, float32 — DESIGN.md §14) must hold its
#    bit-identity gate, and the best f64 variant must beat the naive
#    reference by the regression floor (exit 1 otherwise). Small graph —
#    this is a correctness gate; the committed BENCH_kernels.json comes
#    from the full-size Table V run (see README). The floor is modest
#    at smoke scale: CI boxes are noisy and the smoke graph is small.
run ./build/bench/micro_kernels --kernels_only \
  --kernels_json=build/BENCH_kernels.json \
  --kernels_scale=14 --kernels_degree=8 --kernels_threads=4 \
  --kernels_min_speedup=1.3

# 6b. Scalar-only build: FAULTYRANK_SIMD=OFF must still compile and
#     pass the full suite (the SIMD goldens skip themselves), proving
#     the AVX2 TU is genuinely optional and the scalar lane tree is
#     the source of truth.
run cmake --preset nosimd
run cmake --build --preset nosimd -j "${JOBS}"
run ctest --preset nosimd -j "${JOBS}"

echo
echo "check.sh: all gates green"
