#!/usr/bin/env python3
"""Build and run the scanbench end-to-end benchmark.

Benchmark run (one workload, one seed; the last stdout line is the JSON
result):

    python3 perfbench/run.py --workload flow_atpg --seed 1 --seconds 40 --trace 0

Bench diff: builds the same benchmark against a reference tree (a checkout
of the parent commit, e.g. from `git archive`) and against this tree, runs
the two builds in alternating pairs on the same host, and flags every
end-to-end metric that this tree makes worse than the reference by more
than its bound in BENCHMARK.json. --trace-diff adds one traced run per
build and workload and prints the per-layer metrics side by side with the
end-to-end metric each should move (targets.json):

    python3 perfbench/run.py --diff REF_DIR [--runs 10] [--trace-diff]

Spread check: runs each workload on --runs seeds and prints, per
end-to-end metric, the median and the quartile distance over the median:

    python3 perfbench/run.py --spread [--runs 10] [--workloads a,b]

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
.bench_build) and need only cmake and a C++20 compiler.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
TARGETS = os.path.join(HERE, "targets.json")

RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(source_root=None):
    """Configures once, then rebuilds incrementally; returns the binary.
    `source_root` selects another tree's library (the harness is always
    this directory's)."""
    name = "scanbench-cmake"
    flags = []
    if source_root:
        source_root = os.path.abspath(source_root)
        key = hashlib.sha1(source_root.encode()).hexdigest()[:10]
        name = "scanbench-ref-" + key
        flags = ["-DSCANPOWER_ROOT=" + source_root]
    out = os.path.join(build_dir(), name)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + flags,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "scanbench"], check=True, stdout=sys.stderr)
    return os.path.join(out, "scanbench")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_once(binary, spec, workload, seed, seconds, trace, workload_seed=0):
    """One benchmark run; returns (result dict, human-readable lines)."""
    work = os.path.join(build_dir(), "work")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--work-dir", work]
    if workload_seed:
        cmd += ["--workload-seed", str(workload_seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("scanbench exited with code %d" % proc.returncode)
    raw = json.loads(lines[-1])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not trace:
                raise RuntimeError("scanbench did not report " + m["name"])
            # A layer this workload never enters: zero work, zero time.
            got = {"value": 0, "unit": m["unit"]}
            lines.insert(-1, "# %s = 0 (layer not on this workload's path)"
                         % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, lines[:-1]


def checked_run(binary, spec, workload, seed, seconds, trace=False):
    res, notes = run_once(binary, spec, workload, seed, seconds, trace)
    if not res["correct"]:
        raise RuntimeError("%s seed %d failed its correctness check"
                           % (workload, seed))
    return res, notes


def worse_by(metric, base, new):
    """Share by which `new` is worse than `base` (negative = better)."""
    if base == 0:
        return 0.0
    delta = (new - base) / abs(base)
    return delta if metric["better"] == "lower" else -delta


def spread(values):
    """Quartile distance over the median."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def summary(values):
    """Median with first and third quartiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return "%.6g" % med
    q = statistics.quantiles(values, n=4)
    return "%.6g [%.6g, %.6g]" % (med, q[0], q[2])


def selected(spec, names):
    if not names:
        return spec["workloads"]
    wanted = names.split(",")
    unknown = set(wanted) - {w["name"] for w in spec["workloads"]}
    if unknown:
        raise ValueError("unknown workload(s) " + ", ".join(sorted(unknown)))
    return [w for w in spec["workloads"] if w["name"] in wanted]


def spread_check(spec, args):
    """Per workload and end-to-end metric: median and spread over --runs
    seeds. A steady benchmark keeps every spread but setup_s under a
    third of the metric's bound."""
    binary = build()
    seconds = args.seconds or spec["run_seconds"]
    for w in selected(spec, args.workloads):
        values = {}
        for seed in range(1, args.runs + 1):
            res, _ = checked_run(binary, spec, w["name"], seed, seconds)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log("%s seed %d: %s" % (w["name"], seed, json.dumps(
                {k: v[-1] for k, v in values.items()})))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            s = spread(v)
            print("%-15s %-12s median %14.6g spread %6.2f%% bound %3.0f%%%s" %
                  (w["name"], m["name"], statistics.median(v), 100 * s,
                   100 * m["bound"], "" if s < m["bound"] / 3 else "  << wide"),
                  flush=True)
    return 0


def diff(spec, args):
    """Alternating pairs of reference and fresh runs on the same host; a
    metric is flagged when the median over pairs of its per-pair change
    is worse than its bound."""
    ref_bin = build(args.diff)
    new_bin = build()
    seconds = args.seconds or spec["run_seconds"]
    flagged = 0
    print("%-15s %-12s %-32s %-32s %8s %6s %s" %
          ("workload", "metric", "reference median [q1, q3]",
           "this tree median [q1, q3]", "worse", "bound", "pairs better"))
    for w in selected(spec, args.workloads):
        ref_vals, new_vals, changes = {}, {}, {}
        for seed in range(1, args.runs + 1):
            # Alternate which build goes first, so a host that slows down
            # over the pair does not always penalise the same side.
            order = [(ref_bin, ref_vals), (new_bin, new_vals)]
            if seed % 2 == 0:
                order.reverse()
            for binary, into in order:
                res, _ = checked_run(binary, spec, w["name"], seed, seconds)
                for name, m in res["metrics"].items():
                    into.setdefault(name, []).append(m["value"])
            for m in spec["end_to_end"]:
                changes.setdefault(m["name"], []).append(worse_by(
                    m, ref_vals[m["name"]][-1], new_vals[m["name"]][-1]))
        for m in spec["end_to_end"]:
            d = statistics.median(changes[m["name"]])
            flag = d > m["bound"]
            flagged += flag
            better = sum(1 for c in changes[m["name"]] if c < 0)
            print("%-15s %-12s %-32s %-32s %+7.1f%% %5.0f%% %d/%d%s" %
                  (w["name"], m["name"], summary(ref_vals[m["name"]]),
                   summary(new_vals[m["name"]]), 100 * d, 100 * m["bound"],
                   better, args.runs, "  << beyond bound" if flag else ""),
                  flush=True)
        if args.trace_diff:
            targets = load_json(TARGETS)
            ref, _ = checked_run(ref_bin, spec, w["name"], 1, seconds, True)
            new, _ = checked_run(new_bin, spec, w["name"], 1, seconds, True)
            for m in spec["per_layer"]:
                t = targets[m["name"]]
                if w["name"] not in t["workloads"]:
                    continue
                print("%-15s %-28s %14.6g -> %14.6g  (moves %s)" %
                      (w["name"], m["name"], ref["metrics"][m["name"]]["value"],
                       new["metrics"][m["name"]]["value"],
                       ", ".join(t["moves"])), flush=True)
    print("%d metric(s) beyond bound" % flagged)
    return 1 if flagged else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload-seed", type=lambda s: int(s, 0), default=0,
                    help="input seed (default: the workload's canonical one)")
    ap.add_argument("--diff", metavar="REF_DIR",
                    help="reference source tree to compare against")
    ap.add_argument("--trace-diff", action="store_true")
    ap.add_argument("--spread", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", help="comma-separated subset")
    args = ap.parse_args()

    spec = load_json(SPEC)
    if args.diff:
        return diff(spec, args)
    if args.spread:
        return spread_check(spec, args)
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("unknown workload " + args.workload)
    binary = build()
    start = time.time()
    result, notes = run_once(binary, spec, args.workload, args.seed,
                             args.seconds, args.trace, args.workload_seed)
    for line in notes:
        print(line)
    print("# run.py wall %.1f s" % (time.time() - start))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("run.py: %s" % e)
        sys.exit(1)
