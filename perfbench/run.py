#!/usr/bin/env python3
"""End-to-end PINT benchmark: builds perfbench/pint_bench from this source
tree, runs one workload and prints one JSON result as its last stdout line.

    python3 perfbench/run.py --workload phased-suite --seed 7 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(see perfbench/README.md).  The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) under the source tree root; telemetry traces
of a traced run go to its traces/ subdirectory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("phased-suite", "pipelined-strided", "stealing-sharded")
# Fresh processes whose cold first pass is timed for setup_s (the main run's
# own cold pass is one more sample).
SETUP_PROBES = 6
DEADLINE_S = 175.0

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pint_api.hpp")):
        raise RuntimeError("no PINT source tree next to perfbench/ (src/ missing)")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bdir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", bdir, "--target", "pint_bench", "-j", "4"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(bdir, "pint_bench")


def run_binary(args, deadline):
    """Runs the benchmark binary; returns (human lines, parsed last line)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before " + " ".join(args[1:3]))
    with subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("benchmark binary timed out")
    if proc.returncode != 0:
        raise RuntimeError("benchmark binary exited with %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("benchmark binary printed nothing")
    return lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    t_start = time.monotonic()
    try:
        binary = build(build_dir())
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    # A cold build (first run in a checkout) may take minutes of its own;
    # after it the runs keep most of their usual budget.
    deadline = max(t_start + DEADLINE_S, time.monotonic() + DEADLINE_S - 25.0)

    common = [binary, "--workload", a.workload, "--seed", str(a.seed)]
    try:
        setups, attempted, failed = [], 0, 0
        if a.trace == 0:
            for _ in range(SETUP_PROBES):
                _, r = run_binary(common + ["--seconds", "1", "--trace", "0",
                                            "--setup-only"], deadline)
                setups.append(r["setup_s"])
                attempted += r["attempted"]
                failed += r["failed"]
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        human, r = run_binary(
            common + ["--seconds", repr(a.seconds), "--trace", str(a.trace),
                      "--trace-dir", trace_dir], deadline)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log("perfbench: run failed: %s" % e)
        return 1

    attempted += r["attempted"]
    failed += r["failed"]
    metrics = r["metrics"]
    if a.trace == 0:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        metrics["verdict_ok_rate"]["value"] = 1.0 - failed / attempted
        human.append("# setup_s: median of %d cold passes in fresh processes: %s"
                     % (len(setups), " ".join("%.6f" % s for s in setups)))
    for line in human:
        print(line)
    print("# stamp " + json.dumps(r["stamp"], sort_keys=True))
    print(json.dumps({
        "correct": bool(r["correct"]) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
