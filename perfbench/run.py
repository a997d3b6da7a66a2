#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for codediv.

    python3 perfbench/run.py --workload corpus-report --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/selftest.py

Run from the repository root; codediv is imported from ``src/`` of the
tree this file sits in, never from an installed copy. The workloads are
``corpus-report``, ``rl-groups``, ``hostile`` and ``simulate`` (see
workloads.py); ``all`` runs each in its own process. Inputs are generated
from ``--seed``; rounds repeat in a closed loop with one client, in whole
passes over the inputs while the next pass fits in ``--seconds``, and the
outputs are checked.

With ``--trace 0`` the result holds the end-to-end metrics, traced by
nothing. Round times are normalised to a reference machine speed
(speed.py): the shared host's speed swings by half over tens of seconds.
Raw wall times are printed beside them. With ``--trace 1``, after one
warm-up pass, untraced and traced passes alternate; the result holds
per-layer self times and counts per traced pass, and ``trace.overhead_s``,
the traced minus the untraced pass time. Inputs and outputs go to
``.perfbench_work/<workload>/`` under the repository root and are removed
at the end; ``env.json`` and, when traced, ``spans.jsonl`` stay.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A failed op is an exception, a non-zero exit
or a failed output check; ``correct`` is false when any check failed.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("corpus-report", "rl-groups", "hostile", "simulate")
SETUP_REPEATS = 9
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import codediv, codediv.cli; "
    "print(time.perf_counter() - t)"
)


def import_codediv():
    """Import codediv from this tree's src/ or exit 1 without a result."""
    if not os.path.isfile(os.path.join(SRC, "codediv", "__init__.py")):
        sys.exit(f"perfbench: no codediv sources under {SRC}")
    sys.path.insert(0, SRC)
    import codediv

    if not os.path.abspath(codediv.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: codediv imported from {codediv.__file__}, not {SRC}")
    return codediv


def setup_seconds():
    """Median fresh-interpreter import time of codediv and codediv.cli.

    Not normalised: the import's spread on a shared host does not follow
    the reference kernel's.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:  # the first import also writes bytecode caches
            times.append(float(out.stdout))
    return statistics.median(times)


def environment(codediv):
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gst_backend": codediv.GST_BACKEND,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_before": os.getloadavg(),
    }


def quantile(values, q):
    """Linear-interpolation quantile; the single value when there is one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Tally:
    """Ops attempted and failed, check failures, and digest agreement."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failures = []
        self.errors = {}
        self.digests = {}

    def _same(self, key, digest):
        return self.digests.setdefault(key, digest) == digest

    def add(self, ops, digest):
        for op in ops:
            self.attempted += 1
            if op.ok and op.digest and not self._same(op.name, op.digest):
                op.problems.append(f"{op.name}: output differs from its first run")
            self.check_failures += op.problems
            if not op.ok or op.problems:
                self.failed += 1
                key = f"{op.name}: {op.error.split(':')[0] if op.error else 'check'}"
                self.errors[key] = self.errors.get(key, 0) + 1
        if digest is not None and not self._same("round", digest):
            self.check_failures.append("round outputs differ from the first round")
            self.failed += 1


def run_round(workload, tally, first):
    ops = workload.run_round()
    if first:
        try:
            workload.check(ops)
        except Exception as err:  # unreadable output fails the check, not the run
            ops[0].problems.append(f"outputs unreadable: {type(err).__name__}: {err}")
    tally.add(ops, workload.digest())
    return ops


def measure(workload, seconds, tally, meter):
    """Untraced closed loop of whole passes, while the next pass fits."""
    rounds = []
    start = time.perf_counter()
    with meter:
        while True:
            begin = time.perf_counter()
            for _ in range(workload.rounds_per_pass):
                rounds.append(run_round(workload, tally, not rounds))
            now = time.perf_counter()
            if now - start + now - begin > seconds:
                return rounds


def traced(workload, seconds, tally, work, meter):
    """Alternate untraced and traced passes; per-layer metrics per traced pass.

    Span times are raw wall time. For ``trace.overhead_s`` each pass time
    is normalised by reference kernel samples taken right before and after
    the pass, outside every span.
    """
    import speed
    import trace

    def run_pass(first, rec=None):
        before = meter.burst()
        missing = rec.install() if rec else []
        try:
            ops = []
            for i in range(workload.rounds_per_pass):
                ops += run_round(workload, tally, first and i == 0)
        finally:
            if rec:
                rec.uninstall()
        wall = sum(op.end - op.start for op in ops)
        near = before + meter.burst()
        return wall * speed.REFERENCE_S / statistics.median(near), missing

    rec = trace.Recorder()
    plain, traced_times = [], []
    start = time.perf_counter()
    run_pass(True)  # first-call costs would otherwise land on one side only
    pair = 0.0
    while not traced_times or time.perf_counter() - start + pair <= seconds:
        begin = time.perf_counter()
        plain.append(run_pass(False)[0])
        norm, missing = run_pass(False, rec)
        traced_times.append(norm)
        pair = time.perf_counter() - begin
    for name in missing:
        print(f"{workload.name} not traced: {name} is gone", file=sys.stderr)
    rec.write(os.path.join(work, "spans.jsonl"))
    metrics = rec.layer_metrics(len(traced_times))
    metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain)
    sums = rec.subtree_sums("cli.report")
    for total, self_sum in sums:
        if abs(total - self_sum) > 1e-6 * max(1.0, total):
            tally.check_failures.append(f"cli.report self times sum to {self_sum}, span {total}")
    if sums:
        print(f"{workload.name} cli.report spans {sum(t for t, _ in sums):.6f} s, "
              f"self times below them {sum(s for _, s in sums):.6f} s")
    return metrics


def end_to_end(workload, rounds, meter, setup, tally):
    """The end-to-end metrics, and the issue-level names printed beside them."""
    norm = [sum(meter.normalise(op.start, op.end) for op in ops) for ops in rounds]
    wall = [sum(meter.work(op.start, op.end) for op in ops) for ops in rounds]
    p50, p90, rate = statistics.median(norm), quantile(norm, 0.9), len(norm) / sum(norm)
    if workload.name == "corpus-report":
        report = [meter.normalise(op.start, op.end) for ops in rounds for op in ops
                  if op.name == "report"]
        named = {"pipeline_s": (p50, "s"), "report_s": (statistics.median(report), "s")}
    elif workload.name == "rl-groups":
        named = {"group_ms_p50": (1e3 * p50, "ms"), "group_ms_p90": (1e3 * p90, "ms"),
                 "groups_per_s": (rate, "1/s")}
    else:
        named = {f"{workload.name}_s": (p50, "s")}
    named["round_wall_s"] = (statistics.median(wall), "s")
    named["rounds"] = (len(norm), "count")
    named["failed_ratio"] = (tally.failed / tally.attempted, "ratio")
    metrics = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
        "round_ms_p50": (1e3 * p50, "ms"),
        "round_ms_p90": (1e3 * p90, "ms"),
        "rounds_per_s": (rate, "1/s"),
    }
    return metrics, named


def run_all(args):
    """Every workload in its own process, then every result line."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
    return code


def unit_of(name):
    if name.endswith("_per_s"):
        return name.split(".")[1].split("_")[0] + "/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    # Users' defaults are measured: no worker pool.
    workers_set = os.environ.pop("CODEDIV_WORKERS", None) is not None
    os.chdir(ROOT)
    codediv = import_codediv()
    sys.path.insert(0, HERE)
    import speed
    import workloads

    env = environment(codediv)
    env["codediv_workers_set"] = workers_set
    meter = speed.SpeedMeter()
    work = os.path.join(".perfbench_work", args.workload)
    os.makedirs(work, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(work, args.seed)
    tally = Tally()

    if args.trace:
        values = traced(workload, args.seconds, tally, work, meter)
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
        named = {}
    else:
        setup = setup_seconds()
        rounds = measure(workload, args.seconds, tally, meter)
        values, named = end_to_end(workload, rounds, meter, setup, tally)
        # Above 1 the host ran slower than the reference speed.
        env["speed_factor"] = statistics.median(meter.samples) / speed.REFERENCE_S
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}

    env["loadavg_after"] = os.getloadavg()
    with open(os.path.join(work, "env.json"), "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=1)
    for sub in ("in", "out"):
        shutil.rmtree(os.path.join(work, sub), ignore_errors=True)
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in named.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for key, count in sorted(tally.errors.items()):
        print(f"{args.workload} failed op {key} x{count}")
    for problem in tally.check_failures[:20]:
        print(f"{args.workload} check failed: {problem}")
    print(json.dumps({
        "correct": not tally.check_failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
