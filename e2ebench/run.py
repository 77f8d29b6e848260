#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the e2e_bench harness (and the simulator library) from source into
.bench_build/e2ebench, runs one workload, runs the fig12 teardown probe in
child processes, and prints the harness's JSON result as the last line of
stdout.

    python3 e2ebench/run.py --workload fleet|azure-grid|azure-report \
        [--seed N] [--seconds S] [--trace 0|1] [--workload-seed W]

Run it from the repository root. See e2ebench/README.md for the workloads
and metrics.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2e_bench")
WORKLOADS = ("fleet", "azure-grid", "azure-report")
PROBES = ("fig12-wikipedia", "fig12-twitter")
# The harness itself must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 60


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", jobs]]
    for step in steps:
        # Build chatter goes to stderr; stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def describe_exit(code):
    if code >= 0:
        return "exit code %d" % code
    try:
        return "killed by %s" % signal.Signals(-code).name
    except ValueError:
        return "killed by signal %d" % -code


def probe(name):
    """Run one fig12 probe in a child process; return its one-line outcome."""
    try:
        child = subprocess.run([BINARY, "--probe", name], stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S,
                               text=True, errors="replace")
    except subprocess.TimeoutExpired:
        return "%s: did not finish within %d s" % (name, PROBE_TIMEOUT_S)
    cells = [line[len("probe cell "):line.index(" completed")]
             for line in child.stdout.splitlines()
             if line.startswith("probe cell ") and " completed" in line]
    status = "completed" if child.returncode == 0 else "FAILED (%s)" % describe_exit(
        child.returncode)
    return "%s: %s; cells finished before exit: %s" % (
        name, status, ", ".join(cells) if cells else "none")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed; recorded, it leaves the simulated inputs alone")
    parser.add_argument("--workload-seed", type=int, default=None,
                        help="Poisson trace seed (fleet) or scenario base seed "
                             "(azure-*); default: the paper drivers' seeds")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(BUILD, "out", args.workload)]
    if args.workload_seed is not None:
        command += ["--workload-seed", str(args.workload_seed)]
    try:
        bench = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                               text=True)
    except subprocess.TimeoutExpired:
        print("e2ebench: harness exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = bench.stdout.rstrip("\n").split("\n")
    if bench.returncode != 0:
        sys.stdout.write(bench.stdout)
        print("e2ebench: harness %s" % describe_exit(bench.returncode), file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("e2ebench: harness printed no result", file=sys.stderr)
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("e2ebench: malformed result keys %s" % sorted(result), file=sys.stderr)
        return 1

    print("\n".join(lines[:-1]))
    # The fig12 real-trace cells abort at teardown (arena freed before the
    # cluster's in-flight GPU work); they are probed, not timed.
    for name in PROBES:
        print("fig12 probe " + probe(name))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
