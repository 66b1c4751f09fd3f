#!/usr/bin/env bash
# Runs the production-size component sweeps (exact cache + knapsack) from
# bench/micro_components and merges the results into BENCH_components.json
# under the given label ("pre_pr", "post_pr", ...).  The committed file
# holds one entry per label so hot-path PRs can show before/after numbers
# side by side (README "Perf methodology").
#
# Usage: scripts/bench_components.sh <label> [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:?usage: bench_components.sh <label> [build-dir]}"
BUILD="${2:-build}"
OUT=BENCH_components.json

if [ ! -x "$BUILD/micro_components" ]; then
  echo "error: $BUILD/micro_components not built (needs google-benchmark)" >&2
  exit 1
fi

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT
"$BUILD/micro_components" \
  --benchmark_filter='Production' \
  --benchmark_out_format=json --benchmark_out="$TMP" >&2

[ -f "$OUT" ] || echo '{}' > "$OUT"
jq --arg lbl "$LABEL" --slurpfile bench "$TMP" '
  .[$lbl] = ($bench[0].benchmarks | map({
    name,
    real_time: .real_time,
    time_unit: .time_unit,
    items_per_second: (.items_per_second // null),
    bytes_per_second: (.bytes_per_second // null)
  }))
  # Whenever both anchors are present, recompute per-benchmark speedups.
  | if (has("pre_pr") and has("post_pr")) then
      .speedup_post_over_pre = (
        (.pre_pr | map({key: .name, value: .real_time}) | from_entries) as $pre
        | .post_pr | map(select($pre[.name] != null)
            | {key: .name,
               value: (($pre[.name] / .real_time) * 100 | round / 100)})
        | from_entries)
    else . end
  # Sampled vs exact profiling tier: per-access cost ratio from the label
  # just recorded (events/s of the gated path over the inline path).
  | (.[$lbl] | map(select(.items_per_second != null)
       | {key: .name, value: .items_per_second}) | from_entries) as $ips
  | if ($ips["BM_ProfilerExactAccessProduction"] != null and
        $ips["BM_ProfilerSampledAccessProduction"] != null) then
      .profiler_sampled_speedup = (
        ($ips["BM_ProfilerSampledAccessProduction"] /
         $ips["BM_ProfilerExactAccessProduction"]) * 100 | round / 100)
    else . end
  # Trace emit cost in ns/event for both gate states (ISSUE: disabled <= 1,
  # enabled <= 50), straight from the anchors just recorded.
  | if ($ips["BM_TraceEmitDisabledProduction"] != null and
        $ips["BM_TraceEmitProduction"] != null) then
      .trace_emit_overhead = {
        disabled_ns_per_event:
          (1e9 / $ips["BM_TraceEmitDisabledProduction"] * 1000 | round / 1000),
        enabled_ns_per_event:
          (1e9 / $ips["BM_TraceEmitProduction"] * 1000 | round / 1000)
      }
    else . end
  # Incremental re-planning: the bounded repair (5% and 25% of the items
  # drifted) against the full 2048-item x 512 MiB knapsack solve it
  # replaces, straight from the anchors just recorded (all in ms).
  | (.[$lbl] | map({key: .name, value: .real_time}) | from_entries) as $rt
  | ($rt["BM_KnapsackDPProduction/2048/512"]) as $full
  | ($rt["BM_ReplanIncrementalRepairProduction/2048/512/5"]) as $r5
  | ($rt["BM_ReplanIncrementalRepairProduction/2048/512/25"]) as $r25
  | if ($full != null and $r5 != null and $r25 != null) then
      .replan_incremental_speedup = {
        full_solve_bench: "BM_KnapsackDPProduction/2048/512",
        full_solve_ms: ($full * 1000 | round / 1000),
        repair_drift5pct_ms: ($r5 * 1e6 | round / 1e6),
        repair_drift25pct_ms: ($r25 * 1e6 | round / 1e6),
        speedup_drift5pct: ($full / $r5 | round),
        speedup_drift25pct: ($full / $r25 | round)
      }
    else . end
' "$OUT" > "$OUT.tmp" && mv "$OUT.tmp" "$OUT"

echo "recorded '$LABEL' in $OUT"
