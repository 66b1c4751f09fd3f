#!/usr/bin/env python3
"""Per-World cost benchmark: build the driver from source, run one workload.

    python3 perfbench/run.py --workload fig13_paper --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which builds the unimem libraries from the enclosing
source tree) into .bench_build/perfbench, runs the driver and passes its
output through.  The last stdout line is the result JSON; run.py checks
that it carries exactly the metrics BENCHMARK.json lists for the trace
mode, and exits non-zero otherwise or when the driver fails.

    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

The metric and workload tables below are the source of BENCHMARK.json;
perfbench/README.md defines every metric.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")

RUN_SECONDS = 30

WORKLOADS = [
    ("fig13_paper",
     "fig13 spec, jobs=1: the paper's 2-tier path; touch kernels, page "
     "faults, 4-rank rendezvous. Model unvalidated; the simulated LLC "
     "starts empty in every World"),
    ("tier_ladder_mckp",
     "tier_ladder spec, jobs=1: 2/3/4-tier ladders where the N-tier MCKP "
     "planner costs ~7 ms a solve and nodes carry 3-4 arenas"),
    ("tiny_worlds",
     "seeded 1000-point service_stress slice, max(2, nproc/2) Worlds at a "
     "time: 1-rank class-S Worlds whose fixed cost dominates, run "
     "concurrently"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("world_wall_ms_p50", "ms", "lower", 0.25),
    ("world_wall_ms_p90", "ms", "lower", 0.25),
    ("worlds_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_world", "ms", "lower", 0.25),
    ("minflt_per_world", "count", "lower", 0.2),
    ("peak_rss_mib", "MiB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("sim_norm_time_geomean", "ratio", "lower", 0.02),
]

_CTX = [("ctor_ms", "ms"), ("dtor_ms", "ms"), ("malloc_ms", "ms"),
        ("malloc_calls", "count"), ("compute_ms", "ms"),
        ("compute_calls", "count"), ("phase_hook_ms", "ms"),
        ("start_ms", "ms"), ("iter_begin_ms", "ms"), ("end_ms", "ms"),
        ("free_ms", "ms")]

# (name, unit, better)
PER_LAYER = [
    ("sweep.overhead_ms_per_world", "ms", "lower"),
    ("sweep.baseline_hit_frac", "frac", "higher"),
    ("world.setup_ms", "ms", "lower"),
    ("world.setup_minflt", "count", "lower"),
    ("world.spawn_ms", "ms", "lower"),
    ("world.join_ms", "ms", "lower"),
    ("world.teardown_ms", "ms", "lower"),
] + [("%s.%s" % (layer, name), unit, "lower")
     for layer in ("core", "baselines") for name, unit in _CTX] + [
    ("planner.solve_ms", "ms", "lower"),
    ("planner.solves", "count", "lower"),
    ("migration.copy_ms", "ms", "lower"),
    ("migration.copies", "count", "lower"),
    ("migration.bytes_moved", "B", "lower"),
    ("migration.hidden_frac", "frac", "higher"),
    ("profiler.drain_ms", "ms", "lower"),
    ("minimpi.op_ms", "ms", "lower"),
    ("minimpi.ops", "count", "lower"),
    ("minimpi.wait_frac", "frac", "lower"),
    ("workloads.init_ms", "ms", "lower"),
    ("workloads.init_minflt", "count", "lower"),
    ("workloads.kernel_ms", "ms", "lower"),
    ("kernel.sys_user_ratio", "ratio", "lower"),
    ("kernel.nvcsw_per_world", "count", "lower"),
    ("kernel.nivcsw_per_world", "count", "lower"),
    ("kernel.host_steal_frac", "frac", "lower"),
    ("ledger.world_wall_ms", "ms", "lower"),
    ("ledger.unattributed_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("sim_exposed_migration_s", "sim_s", "lower"),
]


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the driver; output goes to stderr."""
    env = dict(os.environ)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep compiler temporaries inside the checkout
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=1500, check=False)
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def git_commit():
    env = dict(os.environ)
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json at the repository root")
    args = ap.parse_args(argv)

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in 1..600")

    if not build():
        return 1
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150, check=False)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 1
    lines = done.stdout.splitlines()
    error = None
    if done.returncode != 0 or not lines:
        error = "driver exited with %d" % done.returncode
    else:
        got = set(json.loads(lines[-1])["metrics"])
        want = {n for n, *_ in (PER_LAYER if args.trace else END_TO_END)}
        if got != want:
            error = "driver metrics differ from BENCHMARK.json: %s" % sorted(
                got ^ want)
    # A failed run prints no result on stdout: its output goes to stderr.
    out = sys.stderr if error else sys.stdout
    for line in lines:
        print(line, file=out)
    if error:
        log(error)
        return 1
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
