#!/usr/bin/env python3
"""Host-time benchmark of the keyguard reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (and with it the libraries under src/) into .bench_build/
on first use, runs one workload in its own process and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics; a per-layer metric the workload does not exercise reads
0. Each result is also saved under perfbench_out/, with the traced run's
spans as JSONL beside it. --selftest builds and runs the benchmark's own
tests instead.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / "perfbench_out"
# A run that has not finished by then is stuck; the contract allows 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Builds `target` incrementally, configuring first when there is no
    build tree yet or the target is new to it. Output goes to stderr so
    that stdout ends with the result line."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    make = ["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", jobs]

    # Compiler temporaries stay inside the build tree too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))

    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode == 0

    if (BUILD_DIR / "CMakeCache.txt").exists() and step(make):
        return BUILD_DIR / target
    if step(configure) and step(make):
        return BUILD_DIR / target
    log(f"building {target} failed")
    return None


def complete(result, spec, traced):
    """Checks the binary's metrics against BENCHMARK.json and adds the
    per-layer metrics the workload does not exercise, as 0."""
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = result["metrics"]
    known = {m["name"]: m["unit"] for m in wanted}
    for name, m in metrics.items():
        if known.get(name) != m["unit"]:
            raise ValueError(f"metric {name} ({m['unit']}) is not in BENCHMARK.json")
    for m in wanted:
        if m["name"] not in metrics:
            if not traced:
                raise ValueError(f"end-to-end metric {m['name']} missing")
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    return result


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build("perfbench")
    if binary is None:
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(OUT_DIR / f"{stem}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{args.workload} printed no result (exit {proc.returncode})")
        return 1
    result = complete(json.loads(lines[-1]), spec, bool(args.trace))
    line = json.dumps(result)
    (OUT_DIR / f"{stem}.json").write_text(line + "\n")
    print(line)
    return proc.returncode


def selftest():
    binary = build("perfbench_selftest")
    if binary is None:
        return 1
    return subprocess.run([str(binary)]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
