#!/usr/bin/env python3
"""Build and run the StreamBrain end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fit_paper --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

The first run configures and builds perfbench/ (which pulls in the
project's own CMakeLists.txt) under .bench_build/perfbench; later runs
only rebuild what changed.

An untraced run starts PROCESSES benchmark processes one after another,
each with the same seed and a PROCESSES-th of --seconds, and reports for
every metric the median over the MEASURED processes during which the host
stole the least CPU time (/proc/stat) of each process's median sample.
While fewer than MEASURED processes had at most CALM_STEAL of the CPU
time stolen, it starts more, up to MAX_PROCESSES and while the run stays
within RUN_BUDGET_S.
On a shared virtual machine the host's load moves every timing here, and
a process's stolen share tracks that load: over one set of runs, serve
processes with 6% stolen read a p50 of 2.3-2.5 ms, those with 0.2-0.9%
1.3-1.5 ms.
Every process's gates count. A traced run uses one process.

Kernel fan-out is set here, through the environment every process
starts with: fit_paper runs at the library default (both variables
unset), serve at fan-out 1 per shard (STREAMBRAIN_THREADS=1 for the
dispatched GEMM, OMP_NUM_THREADS=1 for the OpenMP loops).

The output is two JSON lines: a context header (the build and host, the
quartiles of each process's samples and across processes, the CPU time
the host stole during each process, failed gates) and, last, the result.
The exit code is nonzero when a correctness gate failed; a build failure
or a crashed process exits nonzero without a result line. `--workload
all` runs every workload in turn.
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
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
BINARY = os.path.join(BUILD_DIR, "sb_perfbench")
RUN_TIMEOUT_S = 170
PROCESSES = 5
MEASURED = 3
CALM_STEAL = 0.02
MAX_PROCESSES = 8
RUN_BUDGET_S = 60
WORKLOADS = ("fit_paper", "serve")
FAN_OUT_VARIABLES = ("STREAMBRAIN_THREADS", "OMP_NUM_THREADS")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "sb_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "include", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def cpu_ticks():
    """(stolen, total) CPU ticks of the host so far, or None off Linux."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def process_env(workload):
    env = dict(os.environ)
    for name in FAN_OUT_VARIABLES:
        if workload == "fit_paper":
            env.pop(name, None)
        else:
            env[name] = "1"
    return env


def run_process(command, env, timeout_s):
    """One benchmark process: (exit code, output, stolen CPU share), or
    None when it crashed, timed out or printed no output."""
    before = cpu_ticks()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        log(f"benchmark process exceeded {timeout_s:.0f} s and was stopped")
        return None
    after = cpu_ticks()
    lines = done.stdout.strip().splitlines()
    try:
        output = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"benchmark process exited {done.returncode} without a result")
        return None
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    return done.returncode, output, steal


def quartiles(values):
    """n, first quartile, median and third quartile, the quartiles as
    statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return {"n": len(values), "q1": values[0], "median": values[0],
                "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def run_workload(workload, args, sid):
    processes = 1 if args.trace else PROCESSES
    start = time.monotonic()
    runs = []
    while True:
        outcome = run_process(
            [BINARY, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds / processes),
             "--trace", str(args.trace), "--work-dir", WORK_DIR,
             "--source-id", sid],
            process_env(workload), start + RUN_TIMEOUT_S - time.monotonic())
        if outcome is None:
            return 1
        runs.append(outcome)
        if len(runs) < processes:
            continue
        steals = sorted(run[2] or 0.0 for run in runs)
        elapsed = time.monotonic() - start
        if (args.trace or steals[MEASURED - 1] <= CALM_STEAL
                or len(runs) >= MAX_PROCESSES
                or elapsed * (len(runs) + 1) / len(runs) > RUN_BUDGET_S):
            break

    measured = sorted(runs, key=lambda run: run[2] or 0.0)[:MEASURED]
    outputs = [run[1] for run in measured]
    gate_failures = [f for run in runs for f in run[1]["gate_failures"]]
    header = {
        "context": dict(outputs[0]["context"], seconds=args.seconds,
                        processes=processes),
        "steal_share": [run[2] for run in runs],
        "steal_share_measured": [run[2] for run in measured],
        "per_process": [],
        "repetitions": {},
        "gate_failures": gate_failures,
    }
    medians = {}
    for out in outputs:
        within = {}
        for name, metric in out["samples"].items():
            if metric["values"]:
                within[name] = quartiles(metric["values"])
                medians.setdefault(name, []).append(within[name]["median"])
        header["per_process"].append(within)
    for name, sample in outputs[0]["samples"].items():
        values = medians.get(name, [])
        if len(values) < len(outputs) or min(values) <= 0:
            gate_failures.append(f"end-to-end metric {name} was not measured "
                                 "or is not positive")
            continue
        header["repetitions"][name] = quartiles(values)

    if args.trace:
        metrics = outputs[0]["layers"]
    else:
        metrics = {name: {"value": header["repetitions"][name]["median"],
                          "unit": sample["unit"]}
                   for name, sample in outputs[0]["samples"].items()
                   if name in header["repetitions"]}
    code = max(run[0] for run in runs)
    correct = code == 0 and not gate_failures
    result = {
        "correct": correct,
        "attempted": sum(run[1]["attempted"] for run in runs),
        "failed": sum(run[1]["failed"] for run in runs),
        "metrics": metrics,
    }
    print(json.dumps(header))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    sid = source_id()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(workload, args, sid) for workload in workloads)


if __name__ == "__main__":
    sys.exit(main())
