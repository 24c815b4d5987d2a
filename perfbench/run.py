#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run (the interface BENCHMARK.json declares):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the benchmark from source (release profile, into $CARGO_TARGET_DIR,
default `.bench_build`), runs one workload, and passes its output through.
The last line of standard output is the JSON result; the lines before it
carry provenance and a readable table.

Steadiness report:

    python3 perfbench/run.py --repeat 10 [--workload <name>] [--first-seed 1] [--seconds <s>]

runs each workload (default: all) once per seed and prints, for every
end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median, flagging every spread larger than the metric's bound
in BENCHMARK.json. With `--trace 1` it summarises the per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Inputs to the source digest that stands in for the commit SHA when
# the checkout is not a git repository.
SOURCES = ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "vendor", "perfbench"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(target_dir):
    h = hashlib.sha256()
    skip = {os.path.abspath(target_dir), os.path.join(ROOT, "target")}
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        elif os.path.isdir(path):
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if os.path.join(d, x) not in skip and x != "target")
                files += [os.path.join(d, n) for n in sorted(names)]
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path",
           os.path.join("perfbench", "Cargo.toml")]
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def run_once(binary, env, workload, seed, seconds, trace, expected):
    """Runs one workload; returns (its output lines, the parsed result)."""
    scratch = os.path.join(ROOT, ".bench_run")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", scratch]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} seed {seed} ran past {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(res.stderr)
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perfbench: {workload} seed {seed} failed (exit {res.returncode})")
    result = json.loads(lines[-1])
    if sorted(result["metrics"]) != sorted(expected):
        raise SystemExit(f"perfbench: metrics {sorted(result['metrics'])} != declared {sorted(expected)}")
    return lines, result


def report(spec_, workloads, runs, trace):
    """Prints median, quartiles and spread per metric; returns the
    number of end-to-end metrics whose spread exceeds the bound."""
    kind = "per_layer" if trace else "end_to_end"
    over = 0
    for w in workloads:
        print(f"\n== {w}: {len(runs[w])} runs")
        print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in spec_[kind]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound:
                flag, over = "OVER BOUND", over + 1
            elif bound is not None and spread > bound / 3:
                flag = "above bound/3"
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"{m['name']:<36} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {b:>6} {flag}")
        failed = sum(r["failed"] for r in runs[w])
        attempted = sum(r["attempted"] for r in runs[w])
        print(f"{'failed / attempted':<36} {failed} / {attempted}")
    return over


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, help="steadiness report over this many seeds")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    spec_ = spec()
    seconds = args.seconds if args.seconds is not None else spec_["run_seconds"]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    binary = build(env)
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest(env["CARGO_TARGET_DIR"])
    expected = [m["name"] for m in spec_["per_layer" if args.trace else "end_to_end"]]
    names = [w["name"] for w in spec_["workloads"]]

    if args.repeat is None:
        if args.workload not in names:
            raise SystemExit(f"perfbench: --workload must be one of {names}")
        lines, _ = run_once(binary, env, args.workload, args.seed, seconds, args.trace, expected)
        print("\n".join(lines), flush=True)
        return

    workloads = [args.workload] if args.workload else names
    runs = {w: [] for w in workloads}
    for w in workloads:
        for seed in range(args.first_seed, args.first_seed + args.repeat):
            _, result = run_once(binary, env, w, seed, seconds, args.trace, expected)
            runs[w].append(result)
            log(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    over = report(spec_, workloads, runs, args.trace)
    if over:
        print(f"\n{over} end-to-end metric(s) spread wider than their bound")
        sys.exit(1)


if __name__ == "__main__":
    main()
