#!/usr/bin/env bash
# Parent-vs-change perfbench pairs, the before/after record of a perf claim.
#
#   scripts/bench_pair.sh PARENT_REF
#
# Extracts PARENT_REF with `git archive` into a temporary directory and
# runs `python3 perfbench/run.py --trace 0` there and in this working tree,
# alternating which side goes first, 10 pairs per workload of
# BENCHMARK.json, each run as long as its run_seconds: the pairs the gain
# rule of a perf claim is judged on.  The per-metric medians and quartiles
# of both sides, the pairs the change won, the host CPU count and the host
# steal share during the runs are written to BENCH_world_cost.json.
# Neither tree's perfbench/ or BENCHMARK.json is modified.
#
# The record names the measured tree by HEAD, by the git tree id of the
# working tree (untracked files included, BENCH_world_cost.json left out)
# and by the paths that differ from HEAD; the script fails if the working
# tree changes while it runs.
#
# Environment: SEED (default 1), the perfbench seed of every run.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 PARENT_REF" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
root="$(pwd)"
parent_commit="$(git rev-parse --verify "$1^{commit}")"

manifest_get() {
  python3 -c "import json,sys; m=json.load(open('BENCHMARK.json')); $1"
}
readonly pairs=10
seconds="$(manifest_get 'print(m["run_seconds"])')"
seed="${SEED:-1}"
workloads="$(manifest_get \
  'print(" ".join(w["name"] for w in m["workloads"]))')"
record=BENCH_world_cost.json

parent_dir="$(mktemp -d)"
runs="$(mktemp -d)"
trap 'rm -rf "$parent_dir" "$runs"' EXIT
git archive "$parent_commit" | tar -x -C "$parent_dir"

# The git tree id of the working tree, untracked files included.
working_tree_id() {
  local idx="$runs/index"
  GIT_INDEX_FILE="$idx" git read-tree HEAD
  GIT_INDEX_FILE="$idx" git add -A
  GIT_INDEX_FILE="$idx" git rm -q --cached --ignore-unmatch "$record"
  GIT_INDEX_FILE="$idx" git write-tree
  rm -f "$idx"
}
change_commit="$(git rev-parse HEAD)"
change_tree="$(working_tree_id)"
git status --porcelain --untracked-files=all -- . ":(exclude)$record" \
  > "$runs/status"

# steal and total jiffies of the host, from the aggregate cpu line.
host_jiffies() {
  awk '/^cpu / { t = 0; for (i = 2; i <= NF; ++i) t += $i;
                 print $9, t; exit }' /proc/stat
}

# run_side SIDE DIR WORKLOAD PAIR: one perfbench run; its result line and
# the steal share of the host while it ran go to $runs.
run_side() {
  local side="$1" dir="$2" wl="$3" i="$4" s0 t0 s1 t1
  read -r s0 t0 < <(host_jiffies)
  (cd "$dir" && python3 perfbench/run.py --workload "$wl" --seed "$seed" \
      --seconds "$seconds" --trace 0) | tail -n 1 \
      > "$runs/$wl.$side.$i.json"
  read -r s1 t1 < <(host_jiffies)
  echo "$((s1 - s0)) $((t1 - t0))" > "$runs/$wl.$side.$i.steal"
}

for wl in $workloads; do
  for ((i = 0; i < pairs; ++i)); do
    echo "bench_pair: $wl pair $((i + 1))/$pairs" >&2
    if ((i % 2 == 0)); then
      run_side parent "$parent_dir" "$wl" "$i"
      run_side change "$root" "$wl" "$i"
    else
      run_side change "$root" "$wl" "$i"
      run_side parent "$parent_dir" "$wl" "$i"
    fi
  done
done

if [[ "$(git rev-parse HEAD)" != "$change_commit" ||
      "$(working_tree_id)" != "$change_tree" ]]; then
  echo "bench_pair: the working tree changed during the run" >&2
  exit 1
fi

python3 - "$runs" "$pairs" "$seconds" "$seed" "$parent_commit" \
    "$change_commit" "$change_tree" "$(nproc)" "$record" $workloads <<'EOF'
import json, os, statistics, sys

runs, pairs, seconds, seed, parent, head, tree, cpus, out_path = sys.argv[1:10]
workloads = sys.argv[10:]
pairs, seconds, seed, cpus = int(pairs), int(seconds), int(seed), int(cpus)
manifest = json.load(open("BENCHMARK.json"))
with open(os.path.join(runs, "status")) as f:
    dirty = [line.rstrip("\n") for line in f if line.strip()]
out = {"parent_commit": parent, "change_commit": head, "change_tree": tree,
       "change_dirty_paths": dirty, "host_cpus": cpus, "seconds": seconds,
       "seed": seed, "pairs": pairs, "workloads": {}}


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": xs}


for wl in workloads:
    sides = {}
    steal = [0, 0]
    for side in ("parent", "change"):
        sides[side] = []
        for i in range(pairs):
            with open(os.path.join(runs, "%s.%s.%d.json" % (wl, side, i))) as f:
                sides[side].append(json.load(f)["metrics"])
            with open(os.path.join(runs, "%s.%s.%d.steal" % (wl, side, i))) as f:
                s, t = map(int, f.read().split())
                steal[0] += s
                steal[1] += t
    metrics = {}
    for m in manifest["end_to_end"]:
        name, better = m["name"], m["better"]
        p = [r[name]["value"] for r in sides["parent"]]
        c = [r[name]["value"] for r in sides["change"]]
        sign = 1 if better == "lower" else -1
        wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
        pq, cq = quartiles(p), quartiles(c)
        metrics[name] = {
            "unit": m["unit"], "better": better, "bound": m["bound"],
            "parent": pq, "change": cq, "change_wins": wins,
            "change_over_parent": (cq["median"] / pq["median"]
                                   if pq["median"] else None),
            # A gain counts when the change wins 9 of 10 pairs and the
            # medians differ by more than the parent's interquartile range.
            "gain_rule_met": (wins >= 9 and
                              sign * (pq["median"] - cq["median"]) >
                              pq["q3"] - pq["q1"]),
        }
    out["workloads"][wl] = {
        "host_steal_frac": steal[0] / steal[1] if steal[1] else 0.0,
        "metrics": metrics,
    }
with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print("bench_pair: wrote %s" % out_path, file=sys.stderr)
EOF
