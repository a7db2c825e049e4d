#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload tpcc_log|ops_lookup|ch_pushdown \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run builds perfbench/vedb_perf.cc
and the simulator libraries from ../src into .bench_build/ (CMake); later runs
rebuild only what changed.

--trace 0 runs the workload once, untraced, and reports the end-to-end
metrics. --trace 1 runs it twice with the same seed, untraced and then under
the span tracer, checks that both runs have the same virtual schedule, and
reports the per-layer metrics (tracing cost is trace.host_overhead).

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exit code 0 means every output check passed. A run that outlives a fixed
multiple of its expected host time is killed and reported as failed.

Design and the metric map: perfbench/DESIGN.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "vedb_perf"

WORKLOADS = ("tpcc_log", "ops_lookup", "ch_pushdown")
# Expected host seconds of one run besides its window: three set-ups (build
# the cluster, load, warm pass, warm-up) plus the output checks. Measured on
# a 4-core host; the hang guard allows HANG_FACTOR times the total. A livelock
# never ends, so the guard can be generous: a host that runs the simulator
# several times slower than the one above (a busy neighbour on the pinned CPU
# alone doubles the run time) must not read as a hang.
EXPECTED_OVERHEAD_S = {"tpcc_log": 8, "ops_lookup": 5, "ch_pushdown": 14}
HANG_FACTOR = 6
# Host seconds the runs may take after the (usually no-op) build, so the
# command ends within 180 s once the build exists.
TOTAL_BUDGET_S = 165
# Virtual metrics a traced run must reproduce exactly: tracing never
# advances virtual time and execution is serialized.
SCHEDULE_KEYS = ("tput_per_s", "lat_p50_ms", "lat_tail_ms")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "vedb_perf",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return BINARY.exists()


def pin_to_one_cpu():
    """The simulator runs one actor at a time under a single run token, so
    one core is all it can use. Pinning its threads to one CPU keeps each
    hand-off on that core: unpinned, every hand-off wakes another vCPU, and
    wall time then tracks the hypervisor's wake-up latency (5x the CPU time
    on a shared 4-vCPU host) instead of the simulator's work. Where the
    affinity cannot be set, the run goes on unpinned."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:
        pass


def run_child(args, deadline, trace_out=None, setups=3, children_left=1):
    """Runs vedb_perf once. Returns (report dict or None, stdout lines).

    The child may use HANG_FACTOR times its expected host time, but no more
    than its share of what is left of TOTAL_BUDGET_S, so the children still
    to run after it keep theirs."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setups", str(setups)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    expected = args.seconds + EXPECTED_OVERHEAD_S[args.workload]
    timeout = min(HANG_FACTOR * expected,
                  (deadline - time.monotonic()) / children_left)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True,
                            preexec_fn=pin_to_one_cpu)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"perfbench: {args.workload} seed {args.seed} exceeded "
            f"{timeout:.0f} s of host time and was killed")
        return None, []
    lines = out.splitlines()
    report = None
    if lines and lines[-1].startswith("{"):
        try:
            report = json.loads(lines[-1])
            report["exit_code"] = proc.returncode
        except json.JSONDecodeError:
            report = None
    if report is None:
        log(f"perfbench: vedb_perf exited {proc.returncode} without a report; "
            f"its last lines:")
        for line in lines[-10:]:
            log("  " + line)
    return report, lines[:-1] if report else lines


def metric_specs():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def record(name, payload):
    runs = BUILD_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    with open(runs / name, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)


def emit(result):
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    end_to_end, per_layer = metric_specs()
    if not build():
        return 2
    deadline = time.monotonic() + TOTAL_BUDGET_S
    failed_run = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    untraced, lines = run_child(args, deadline,
                                setups=1 if args.trace else 3,
                                children_left=2 if args.trace else 1)
    if untraced is None:
        return emit(failed_run)
    for line in lines:
        if not line.startswith(("check", "fingerprint")):
            print(line)
    failures = list(untraced["failures"])
    fp = untraced["fingerprint"]
    print(f"fingerprint workload={args.workload} seed={args.seed} "
          f"ops={fp['ops']} commits={fp['commits']} "
          f"pmem_write_bytes={fp['pmem_write_bytes']}")

    if args.trace == 0:
        values = untraced["end_to_end"]
        wanted = end_to_end
    else:
        trace_file = BUILD_DIR / "traces" / f"{args.workload}-{args.seed}.json"
        traced, lines = run_child(args, deadline, trace_out=trace_file,
                                  setups=1)
        if traced is None:
            return emit(failed_run)
        for line in lines:
            if line.startswith("metric self.") or "breakdown" in line:
                print("traced " + line)
        failures += traced["failures"]
        for key in SCHEDULE_KEYS:
            a = untraced["end_to_end"][key]["value"]
            b = traced["end_to_end"][key]["value"]
            if a != b:
                failures.append(f"traced run changed {key}: {a} -> {b}")
        if traced["fingerprint"] != fp:
            failures.append("traced run changed the schedule fingerprint")
        values = dict(traced["per_layer"])
        # Host-cost layer metrics describe the untraced simulator.
        for key, v in untraced["per_layer"].items():
            if key.startswith("sim."):
                values[key] = v
        values["trace.host_overhead"] = {
            "value": traced["per_layer"]["sim.host_wall_s"]["value"] /
                     untraced["per_layer"]["sim.host_wall_s"]["value"],
            "unit": "ratio"}
        wanted = per_layer

    metrics = {}
    for m in wanted:
        got = values.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            failures.append(f"metric {m['name']} [{m['unit']}] was not "
                            f"measured")
            continue
        metrics[m["name"]] = got
        print(f"result {m['name']} {got['value']:.6g} {m['unit']}")
    for f in failures:
        print(f"check FAILED {f}")
        log(f"perfbench: check FAILED {f}")
    if not failures:
        print("check ok: all output checks passed")
    exit_ok = untraced["exit_code"] == 0 and (
        args.trace == 0 or traced["exit_code"] == 0)
    if not exit_ok:
        log("perfbench: vedb_perf exited nonzero")
    correct = not failures and exit_ok
    result = {"correct": correct, "attempted": untraced["attempted"],
              "failed": untraced["failed"], "metrics": metrics}
    record(f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
           {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "fingerprint": fp, "failures": failures, **result})
    return emit(result)


if __name__ == "__main__":
    sys.exit(main())
