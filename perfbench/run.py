"""weilcoh benchmark: cold CLI calls on named workloads, checked by oracles.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a checkout; the package is imported from its `src`.
Every CLI call runs in a fresh interpreter, one at a time, with
WEILCOH_MAX_ENTRIES removed from its environment.  The seed fixes only the
order of the plain and traced children of a traced run, since every
workload is deterministic.

--trace 0: as many plain calls as fit in --seconds (at least one); prints
the end-to-end metrics.
--trace 1: one plain and two traced calls; prints the per-layer metrics,
the tracing overhead, and fails the run unless every work count repeats
exactly between the two traced calls.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_UNITS, LAYER_METRICS, unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEADLINE_S = 170   # a run stops starting children after this long

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
             "peak_rss_mb": "MiB"}


class ChildError(RuntimeError):
    """A child interpreter gave no measurement at all."""


def child_env():
    """The caller's environment without the entry cap or any PYTHON*
    setting.  Bytecode caches are written, as for an installed package,
    and str hashing is fixed so that work counts repeat exactly."""
    env = {key: value for key, value in os.environ.items()
           if key != "WEILCOH_MAX_ENTRIES" and not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode, argv=(), timeout=DEADLINE_S):
    """Run child.py once; return its measurements plus `setup_s`."""
    cmd = [sys.executable, str(HERE / "child.py"), mode]
    if argv:
        cmd += ["--"] + list(argv)
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=str(ROOT),
                          capture_output=True, text=True,
                          timeout=max(1.0, timeout))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildError("child %s exited %d without a result:\n%s"
                         % (mode, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["module"].startswith(str(SRC)):
        raise ChildError("weilcoh imported from %s, not %s"
                         % (result["module"], SRC))
    result["setup_s"] = result["imported"] - t0
    return result


class Run:
    """The children of one benchmark run and their verdicts."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.rng = random.Random(seed)
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.start)

    def call(self, mode):
        """One CLI call in a fresh child, checked against the oracle."""
        self.attempted += 1
        result = spawn(mode, self.workload.argv(), self.remaining())
        problems = self.workload.check(result["exit"], result["doc"])
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return result


def plain_run(workload, seed, seconds):
    """Plain calls, which go on while another one is predicted to fit in
    `seconds`.  Each call's own set-up time is a sample of `setup_s`."""
    run = Run(workload, seed)
    spawn("setup")  # warm-up: the first import may write bytecode caches
    calls = []
    while True:
        calls.append(run.call("plain"))
        elapsed = time.monotonic() - run.start
        per_call = elapsed / len(calls)
        if elapsed + per_call > seconds or per_call > run.remaining():
            break
    walls = [c["wall_s"] for c in calls]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(c["cpu_s"] for c in calls),
        "setup_s": statistics.median(c["setup_s"] for c in calls),
        "peak_rss_mb": statistics.median(c["peak_rss_kb"] / 1024
                                         for c in calls),
    }
    info = {"calls": len(calls), "wall_s_max": max(walls)}
    return run, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, info


def count_mismatches(first, second):
    """Count metrics (calls, entries, bits, ratios) that differ."""
    return sorted(name for name in LAYER_METRICS
                  if unit_of(name) in COUNT_UNITS
                  and first[name] != second[name])


def traced_run(workload, seed):
    """One plain and two traced calls in seed-shuffled order."""
    run = Run(workload, seed)
    modes = ["plain", "trace", "trace"]
    run.rng.shuffle(modes)
    results = [(mode, run.call(mode)) for mode in modes]
    plain = next(r for mode, r in results if mode == "plain")
    traces = [r for mode, r in results if mode == "trace"]
    for r in traces:
        if r["trace"]["missing"]:
            run.problems.append("trace targets not found: %s"
                                % r["trace"]["missing"])
        if r["trace"]["stale"]:
            run.problems.append("untraced bindings %s" % r["trace"]["stale"])
    layer = [r["trace"]["metrics"] for r in traces]
    differ = count_mismatches(*layer)
    if differ:
        run.problems.append("counts differ between traced runs: %s" % differ)
    metrics = {}
    for name in LAYER_METRICS:
        unit = unit_of(name)
        # counts are identical (checked above); times are averaged
        value = layer[0][name] if unit in COUNT_UNITS else \
            statistics.fmean(m[name] for m in layer)
        metrics[name] = (value, unit)
    traced_wall = statistics.fmean(r["wall_s"] for r in traces)
    metrics["trace.overhead_s"] = (traced_wall - plain["wall_s"], "s")
    metrics["trace.unattributed_s"] = (statistics.fmean(
        r["wall_s"] - r["trace"]["self_total_s"] for r in traces), "s")
    info = {"plain_wall_s": plain["wall_s"], "traced_wall_s": traced_wall}
    return run, metrics, info


def result(run, metrics):
    """The benchmark's final JSON object."""
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": model}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weilcoh" / "cli.py").is_file():
        print("error: no weilcoh package under %s; run from a checkout"
              % SRC, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            run, metrics, info = traced_run(workload, args.seed)
        else:
            run, metrics, info = plain_run(workload, args.seed, args.seconds)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for problem in run.problems:
        print("# problem: %s" % problem)
    info.update(machine())
    print("# %s %s" % (workload.name, json.dumps(info, sort_keys=True)))
    print(json.dumps(result(run, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
