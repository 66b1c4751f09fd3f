#!/usr/bin/env bash
# CI pipeline, one entry point for local runs and the GitHub Actions
# matrix (.github/workflows/ci.yml — each matrix job runs exactly one
# stage):
#
#   scripts/ci.sh docs      markdown link check over README/ROADMAP/docs/
#                           (no build; also runs first in the release stage)
#   scripts/ci.sh release   docs -> configure+build (RelWithDebInfo) ->
#                           tier-1 -> e2e aggregates -> bench smoke ->
#                           sweep smoke -> sweep service -> perfbench
#                           build + its tests
#   scripts/ci.sh asan      ASan+UBSan Debug build -> tier-1
#   scripts/ci.sh tsan      TSan Debug build -> tier-1 -> sweep smoke
#                           (the minimpi rank threads and the sweep
#                           worker pool are the concurrency hot spots
#                           the TSan pass guards)
#   scripts/ci.sh all       all three stages in order (the default; same
#                           behavior as the old monolithic script)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

stage_docs() {
  echo "== [docs] markdown link check =="
  # Fails on intra-repo links/anchors that point nowhere (README, ROADMAP,
  # docs/**).  External URLs are skipped — no network in CI paths.
  python3 scripts/check_md_links.py
}

stage_release() {
  stage_docs

  echo "== [release] configure =="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo

  echo "== [release] build =="
  cmake --build build -j "$JOBS"

  echo "== [release] tier-1 tests =="
  ctest --test-dir build -L tier1 --output-on-failure -j "$JOBS"

  echo "== [release] e2e aggregates =="
  # Whole-binary runs: cross-case assertions (e.g. the matrix test's
  # cross-strategy checksum comparison) only fire when all cases share one
  # process, which the per-case tier-1 entries cannot provide.  The
  # ctest_e2e_aggregates_exist tier-1 test asserts this label stays
  # populated (see cmake/check_label_aggregates.cmake).
  ctest --test-dir build -L e2e --output-on-failure -j "$JOBS"

  echo "== [release] bench smoke =="
  ctest --test-dir build -L bench-smoke --output-on-failure -j "$JOBS"

  echo "== [release] sweep smoke =="
  # The unimem_sweep CLI end to end at smoke scale (tiny spec, parallel
  # engine, JSONL/CSV/summary outputs, drift-injected replan_drift spec,
  # and the traced fig13 run whose spill feeds unimem_trace --summary and
  # --dag).
  ctest --test-dir build -L sweep-smoke --output-on-failure -j "$JOBS"

  echo "== [release] sweep service =="
  # The coordinator/launcher service layer: strict CLI parsing, merge
  # heuristics, a fork campaign's summary, kill-and-resume, and the
  # service_stress spec slice across forked workers.
  ctest --test-dir build -L sweep-service --output-on-failure -j "$JOBS"

  echo "== [release] perfbench build =="
  # The benchmark driver compiles against the runtime's public headers
  # (OpInfo, PmpiHooks, Context, the Runtime/StaticContext constructors,
  # parse_topology), so a header change that breaks it fails here rather
  # than in every benchmark run.
  cmake -S perfbench -B build-perfbench
  cmake --build build-perfbench -j "$JOBS"
  ctest --test-dir build-perfbench --output-on-failure -j "$JOBS"
}

stage_asan() {
  echo "== [asan] asan+ubsan configure + build + tier-1 =="
  cmake -B build-asan -S . -DUNIMEM_SANITIZE=address,undefined \
        -DCMAKE_BUILD_TYPE=Debug
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan -L tier1 --output-on-failure -j "$JOBS"
}

stage_tsan() {
  echo "== [tsan] tsan configure + build + tier-1 + sweep smoke/service =="
  cmake -B build-tsan -S . -DUNIMEM_SANITIZE=thread -DCMAKE_BUILD_TYPE=Debug
  cmake --build build-tsan -j "$JOBS"
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir build-tsan -L tier1 --output-on-failure -j "$JOBS"
  # Race the sweep worker pool (concurrent Worlds + per-job copy helpers
  # + the adaptive re-planner's epoch path) under TSan, not just the
  # single-World suites.
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir build-tsan -L sweep-smoke --output-on-failure -j "$JOBS"
  # The service layer too: the single-threaded coordinator forking
  # multi-threaded task children is exactly the pattern TSan polices.
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir build-tsan -L sweep-service --output-on-failure -j "$JOBS"
}

STAGE="${1:-all}"
case "$STAGE" in
  docs)    stage_docs ;;
  release) stage_release ;;
  asan)    stage_asan ;;
  tsan)    stage_tsan ;;
  all)
    stage_release
    stage_asan
    stage_tsan
    ;;
  *)
    echo "usage: scripts/ci.sh [docs|release|asan|tsan|all]" >&2
    exit 1
    ;;
esac

echo "CI OK ($STAGE)"
