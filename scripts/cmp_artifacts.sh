#!/usr/bin/env bash
# Parent-vs-change artifact check for refactors that must not move a byte.
#
#   scripts/cmp_artifacts.sh PARENT_BIN CHANGE_BIN
#
# PARENT_BIN and CHANGE_BIN are two `unimem_sweep` binaries, typically one
# built from the parent commit and one from the working tree.  Each runs
# `--jobs 1 --quiet --csv --jsonl` on the specs below, and every CSV and
# JSONL pair is compared with `cmp`.  The script then prints the non-test
# line count of src/*/*.{h,cc} and tools/*.cc in the working tree, the
# figure CHANGES.md entries quote.  Exits non-zero if any artifact differs
# or any run fails.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN" >&2
  exit 2
fi
parent="$(realpath "$1")"
change="$(realpath "$2")"
for bin in "$parent" "$change"; do
  [[ -x "$bin" ]] || { echo "not an executable: $bin" >&2; exit 2; }
done
cd "$(dirname "$0")/.."

specs=(fig2 fig3 fig4 fig9 fig10 fig11 fig12 fig13 table4 replan_drift
       profiler_fidelity tier_ladder tier_sensitivity3)
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

status=0
for spec in "${specs[@]}"; do
  for side in parent change; do
    bin="$parent"
    [[ $side == change ]] && bin="$change"
    if ! "$bin" --spec "$spec" --jobs 1 --quiet \
        --csv "$out/$spec.$side.csv" --jsonl "$out/$spec.$side.jsonl" \
        > /dev/null; then
      echo "FAIL $spec: $side run exited non-zero"
      status=1
      continue 2
    fi
  done
  for ext in csv jsonl; do
    if cmp -s "$out/$spec.parent.$ext" "$out/$spec.change.$ext"; then
      echo "same $spec.$ext"
    else
      echo "DIFF $spec.$ext"
      status=1
    fi
  done
done

echo "lines src/*/*.{h,cc} tools/*.cc: $(cat src/*/*.h src/*/*.cc tools/*.cc | wc -l)"
exit "$status"
