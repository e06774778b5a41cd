#!/usr/bin/env python3
"""Pipeline benchmark of tcpanaly: build, generate inputs, measure, check.

Run from the repository root:

    python3 perfbench/run.py --workload busy_link --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (and the repository's libraries, from
source) into .bench_build/, simulates the workload's inputs from the seed
into a fresh directory under .bench_work/, measures for the given seconds
and prints a metric table; its last line is the result document
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. The exit status is 0 only
when every output check passed.

--smoke runs every workload of BENCHMARK.json briefly on small inputs, in
both modes, and validates each result document against BENCHMARK.json.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no tcpanaly sources at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def call(args, timeout):
    """Run the benchmark program; stdout is returned, stderr passes through."""
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run([str(BINARY), *args], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not finish in {timeout:.0f} s")
    return proc.returncode, proc.stdout


def measure(workload, seed, seconds, trace, smoke=False):
    """Generate, run and clean up. Returns (exit status, stdout)."""
    started = time.monotonic()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", workload, "--seed", str(seed), "--dir",
              str(work.relative_to(ROOT))] + (["--smoke"] if smoke else [])
    try:
        status, out = call(["gen", *common], DEADLINE_S)
        if status != 0:
            raise BenchError(f"input generation failed ({status})")
        # Write the inputs back now rather than during the measurement.
        os.sync()
        left = DEADLINE_S - (time.monotonic() - started)
        args = ["run", *common, "--seconds", str(seconds), "--trace", str(trace)]
        return call(args, left)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        # A run leaves hundreds of MB of rows; on a filesystem mounted with
        # discard, freeing them costs I/O that would otherwise land in the
        # next run's set-up.
        os.sync()


def validate(doc, spec, trace):
    """Problems with one result document, against BENCHMARK.json."""
    problems = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(doc)}")
        return problems
    if doc["correct"] is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(doc["attempted"], int) and doc["attempted"] < 1:
        problems.append("attempted < 1")
    if doc["failed"] != 0:
        problems.append(f"failed = {doc['failed']}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(doc["metrics"]) != set(units):
        missing = sorted(set(units) - set(doc["metrics"]))
        extra = sorted(set(doc["metrics"]) - set(units))
        problems.append(f"metrics differ: missing {missing}, extra {extra}")
    for name, m in doc["metrics"].items():
        if set(m) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(m)}")
            continue
        value = m["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or \
                not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif not trace and value == 0:
            problems.append(f"{name}: end-to-end metric is 0")
        if name in units and m["unit"] != units[name]:
            problems.append(f"{name}: unit {m['unit']!r}, declared {units[name]!r}")
    return problems


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            status, out = measure(workload, 1, 1, trace, smoke=True)
            lines = out.strip().splitlines()
            try:
                doc = json.loads(lines[-1])
                problems = validate(doc, spec, trace)
            except (IndexError, ValueError) as e:
                problems = [f"no result document ({e})"]
            if status != 0:
                problems.append(f"exit status {status}")
            failures += bool(problems)
            verdict = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"smoke {workload} --trace {trace}: {verdict}", flush=True)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        build()
        if args.smoke:
            return smoke()
        if not args.workload:
            parser.error("--workload is required")
        status, out = measure(args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        return status
    except BenchError as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
