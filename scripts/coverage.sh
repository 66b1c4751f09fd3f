#!/usr/bin/env bash
# Which code does the product need?  Builds the repository with
# `--coverage -O0` into a scratch build directory and measures line and
# function coverage of src/ and tools/ under two workloads:
#
#   (a) ctest: the whole test suite.
#   (b) the product: the 13 golden-pinned specs run plainly, a traced sweep
#       fed to `unimem_trace --summary` and `--dag`, a fork-launched sweep,
#       a resumed sweep, and a slice of service_stress.
#
# It prints the executable-line count, the lines (a) and (b) reach, and
# every function (b) never reaches, marked "test-only" when (a) reaches
# it.  A function only tests reach is a deletion candidate.
#
#   scripts/coverage.sh [BUILD_DIR]     (default: build-coverage)
#
# Env: JOBS (default nproc) bounds the build and the sweeps.  Needs gcov-12
# and python3; nothing else.  Known blind spots: an inline or template
# function nobody instantiates emits no code, so gcov cannot report it;
# and forked sweep workers leave with _exit(), which skips the gcov dump,
# so the fork run counts only the coordinator's side (the workers run the
# same engine code the in-process runs reach).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="$(realpath -m "${1:-build-coverage}")"
JOBS="${JOBS:-$(nproc)}"
GCOV="${GCOV:-gcov-12}"
command -v "$GCOV" > /dev/null || { echo "coverage: $GCOV not found" >&2; exit 2; }

reset_counters() {
  [[ -d "$BUILD" ]] && find "$BUILD" -name '*.gcda' -delete
  return 0
}

echo "== configure + build ($BUILD) =="
# Stale counters of a rebuilt test binary would clash with the test
# discovery run the build makes.
reset_counters
cmake -S . -B "$BUILD" -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS="--coverage -O0 -fprofile-update=atomic" \
      -DCMAKE_EXE_LINKER_FLAGS=--coverage > /dev/null
cmake --build "$BUILD" -j "$JOBS" > /dev/null

REPORT="$BUILD/coverage"
rm -rf "$REPORT"
mkdir -p "$REPORT/work"

# Collect per-line and per-function counts of every src/ and tools/ file
# into one JSON file.  gcov reads each object's .gcno (what is executable)
# and its .gcda (the counts since reset_counters; none means all zero).
collect() {
  local out="$1" list="$REPORT/objects.txt"
  find "$BUILD/CMakeFiles" -name '*.gcno' > "$list"
  python3 - "$GCOV" "$PWD" "$list" "$out" <<'PY'
import json, os, subprocess, sys
gcov, root, listing, out = sys.argv[1:]
lines, funcs = {}, {}
for gcno in open(listing).read().split():
    res = subprocess.run([gcov, "--json-format", "--stdout", gcno],
                         cwd=os.path.dirname(gcno), capture_output=True)
    for doc in res.stdout.decode().splitlines():
        if not doc.strip():
            continue
        for f in json.loads(doc)["files"]:
            path = os.path.relpath(os.path.realpath(
                os.path.join(root, f["file"])), root)
            if not (path.startswith("src/") or path.startswith("tools/")):
                continue
            for ln in f["lines"]:
                key = f'{path}:{ln["line_number"]}'
                lines[key] = lines.get(key, 0) + ln["count"]
            for fn in f["functions"]:
                key = f'{path}:{fn["start_line"]}:{fn["demangled_name"]}'
                funcs[key] = funcs.get(key, 0) + fn["execution_count"]
json.dump({"lines": lines, "funcs": funcs}, open(out, "w"))
PY
}

echo "== (b) the product =="
reset_counters
CLI="$BUILD/unimem_sweep"
TRACE_CLI="$BUILD/unimem_trace"
W="$REPORT/work"
for spec in fig2 fig3 fig4 fig9 fig10 fig11 fig12 fig13 table4 replan_drift \
            profiler_fidelity tier_ladder tier_sensitivity3; do
  echo "   $spec"
  "$CLI" --spec "$spec" --jobs "$JOBS" --quiet \
         --csv "$W/$spec.csv" --jsonl "$W/$spec.jsonl" > /dev/null
done
echo "   traced table4 + unimem_trace"
"$CLI" --spec table4 --jobs "$JOBS" --quiet --trace "$W/run.trace" > /dev/null
"$TRACE_CLI" "$W/run.trace" --summary > /dev/null
"$TRACE_CLI" "$W/run.trace" --dag > /dev/null
"$TRACE_CLI" "$W/run.trace" --json "$W/run.json" > /dev/null
echo "   fork-launched table4"
"$CLI" --spec table4 --launcher fork --workers 2 --quiet \
       --summary-json "$W/fork.summary.json" > /dev/null
echo "   resumed table4"
head -n 3 "$W/table4.jsonl" > "$W/resumed.jsonl"
"$CLI" --spec table4 --jobs "$JOBS" --resume --quiet \
       --jsonl "$W/resumed.jsonl" --csv "$W/resumed.csv" > /dev/null
cmp -s "$W/table4.csv" "$W/resumed.csv" ||
  { echo "coverage: resumed table4 differs from the plain run" >&2; exit 1; }
echo "   service_stress slice"
"$CLI" --spec service_stress --filter bw0.1/lat1/ --jobs "$JOBS" --quiet \
       > /dev/null
collect "$REPORT/product.json"

echo "== (a) ctest =="
reset_counters
ctest --test-dir "$BUILD" -j "$JOBS" > "$REPORT/ctest.log" ||
  { echo "coverage: ctest failed (see $REPORT/ctest.log)" >&2; exit 1; }
collect "$REPORT/ctest.json"

python3 - "$REPORT/ctest.json" "$REPORT/product.json" <<'PY'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:])
exe = set(a["lines"]) | set(b["lines"])
reached = lambda cov: sum(1 for k in exe if cov["lines"].get(k, 0) > 0)
print(f"executable lines in src/ + tools/: {len(exe)}")
print(f"(a) ctest reaches   {reached(a)}")
print(f"(b) product reaches {reached(b)}")
print()
print("functions (b) never reaches (file:line  [test-only|unreached]  name):")
for key in sorted(set(a["funcs"]) | set(b["funcs"]),
                  key=lambda k: (k.split(":")[0], int(k.split(":")[1]))):
    if b["funcs"].get(key, 0) > 0:
        continue
    path, line, name = key.split(":", 2)
    tag = "test-only" if a["funcs"].get(key, 0) > 0 else "unreached"
    print(f"  {path}:{line}  {tag:9}  {name}")
PY
