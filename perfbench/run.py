"""Time-to-verdict benchmark for the prelie_calculus CLI.

Run from the repository root:

    python3 perfbench/run.py --workload calculus --seed 1 --seconds 30 --trace 0

One client drives ``prelie_calculus.cli.main(argv)`` in this process,
in a closed loop: the next job starts only after the previous verdict
is out and checked.  There are no threads and no worker processes; the
only children are the fresh interpreters timed for ``setup_s``, run one
at a time.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it runs the same jobs untraced and then traced and
reports the per-layer metrics.  Every metric is printed as
``name value unit``; the last line is one JSON object.  The exit code
is 1 when any verdict differs from its expected answer, 2 when the
library cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bench_jobs
from bench_speed import SpeedProbe
from bench_trace import MODULES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
# share of --seconds the untraced pass of a traced run takes; the
# traced pass runs the same jobs
TRACE_SHARE = 0.4


def load_cli():
    """Import the CLI from this checkout's src/, or exit with code 2."""
    if not (SRC / "prelie_calculus" / "cli.py").is_file():
        print(f"error: {SRC}/prelie_calculus not found; the benchmark "
              "needs a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import prelie_calculus.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"error: imported {cli.__file__}, not the one under {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return cli


def measure_setup(probe):
    """Median wall time of a fresh interpreter running the catalog
    command: import plus catalog load.  One untimed start first writes
    the bytecode caches; the speed probe samples after each start."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-m", "prelie_calculus.cli", "catalog", "--json"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        elapsed = time.perf_counter() - start
        ids = json.loads(proc.stdout) if proc.returncode == 0 else {}
        if not set(bench_jobs.CATALOG_IDS) <= set(ids):
            raise RuntimeError(f"catalog start-up failed: {proc.stderr}")
        if i:
            times.append(elapsed)
        probe.sample()
    return statistics.median(times)


class Client:
    """The closed loop: run one job, check its verdict, then the next.
    With a speed probe, the probe samples between jobs, off the clock."""

    def __init__(self, main, probe=None):
        self.main = main
        self.probe = probe
        self.attempted = 0
        self.failed = 0

    def run(self, job, tracer=None):
        """Run one job; returns its time in ns from call to return."""
        out, err = io.StringIO(), io.StringIO()
        argv = list(job.argv)
        rc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                rc = self.main(argv) if tracer is None \
                    else tracer.span("cli", self.main, argv)
            except (Exception, SystemExit):
                err.write(traceback.format_exc())
            end = time.perf_counter_ns()
        self.attempted += 1
        try:
            ok = rc is not None and job.verify(rc, json.loads(out.getvalue()))
        except (ValueError, KeyError, TypeError, IndexError,
                ZeroDivisionError):
            ok = False
        if not ok:
            self.failed += 1
            print(f"MISMATCH {job.label}: argv={argv} rc={rc}\n"
                  f"{out.getvalue()}{err.getvalue()}", file=sys.stderr)
        return end - start

    def run_round(self, jobs, tracer=None):
        """Run jobs in order; returns (per-job ns, busy ns)."""
        start = time.perf_counter_ns()
        times, probing = [], 0
        for job in jobs:
            times.append(self.run(job, tracer))
            if self.probe:
                probing += self.probe.due()
        return times, time.perf_counter_ns() - start - probing


def end_to_end(client, workload, seconds):
    """Whole rounds until the busy time reaches ``seconds``.  Instance
    files are written between rounds, off the clock.  Times are scaled
    to the reference speed of ``bench_speed``."""
    setup_s = measure_setup(client.probe)
    client.run_round(workload.warmup())
    rounds, times, busy = 0, [], 0
    while busy < seconds * 1e9 or not rounds:
        t, b = client.run_round(workload.round(rounds))
        rounds += 1
        times += t
        busy += b
    ms = [t / 1e6 for t in times]
    p50 = statistics.median(ms)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    jobs_per_s = len(ms) / (busy / 1e9)
    scale = client.probe.scale()
    info = {"rounds": rounds, "verdict_ms samples": len(ms),
            "busy_s": busy / 1e9,
            "speed kernel ms (median)": client.probe.kernel_ms(),
            "speed kernel samples": len(client.probe.samples),
            "time scale": scale,
            "unscaled setup_s, p50, p90 ms, jobs_per_s":
                f"{setup_s:.6g} {p50:.6g} {p90:.6g} {jobs_per_s:.6g}"}
    return info, {
        "setup_s": (setup_s * scale, "s"),
        "verdict_ms.p50": (p50 * scale, "ms"),
        "verdict_ms.p90": (p90 * scale, "ms"),
        "jobs_per_s": (jobs_per_s / scale, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(client, workload, seconds, trace_path):
    """Each round runs untraced and traced, in alternating order, so
    that drift in machine speed falls on both passes alike."""
    client.run_round(workload.warmup())
    tracer = Tracer()
    rounds, times, plain_busy, traced_busy = [], [], 0, 0
    while plain_busy < seconds * TRACE_SHARE * 1e9 or not rounds:
        jobs = workload.round(len(rounds))
        rounds.append(jobs)
        for traced in ((False, True) if len(rounds) % 2 else (True, False)):
            if not traced:
                plain_busy += client.run_round(jobs)[1]
                continue
            tracer.install()
            try:
                t, busy = client.run_round(jobs, tracer)
            finally:
                tracer.uninstall()
            times += t
            traced_busy += busy
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    jobs = len(times)
    spans = tracer.summary()
    counts = tracer.counts

    def calls(*names):
        return sum(spans.get(n, (0, 0, 0))[0] for n in names) / jobs

    def total_ms(*names):
        return sum(spans.get(n, (0, 0, 0))[1] for n in names) / 1e6 / jobs

    def self_s(*names):
        return sum(spans.get(n, (0, 0, 0))[2] for n in names) / 1e9 / jobs

    def module_self_s(module, exclude=()):
        return self_s(*(n for n in spans if n.split(".")[0] == module
                        and n not in exclude))

    def per_job(key):
        return counts.get(key, 0) / jobs

    job_s = total_ms("cli") / 1e3
    metrics = {
        "cli.self_ms": (self_s("cli") * 1e3, "ms/job"),
        "cli.instance_rows": (sum(j.rows for r in rounds for j in r) / jobs,
                              "rows/job"),
        "catalog.load_catalog.ms": (total_ms("catalog.load_catalog"),
                                    "ms/job"),
        "exact_core.linear_kernel.self_s":
            (self_s("exact_core.linear_kernel"), "s/job"),
        "exact_core.linear_kernel.calls":
            (calls("exact_core.linear_kernel"), "calls/job"),
        "exact_core.linear_kernel.cells":
            (per_job("exact_core.linear_kernel.cells"), "cells/job"),
        "exact_core.linear_kernel.rank":
            (per_job("exact_core.linear_kernel.rank"), "rank/job"),
        "exact_core.scalar_mul.calls":
            (per_job("exact_core.scalar_mul.calls"), "calls/job"),
        "exact_core.lambda_mul.calls":
            (per_job("exact_core.lambda_mul.calls"), "calls/job"),
        "dga.differential_d.self_s": (self_s("dga.differential_d"), "s/job"),
        "dga.differential_d.calls": (calls("dga.differential_d"),
                                     "calls/job"),
        "dga.differential_d.terms_out":
            (per_job("dga.differential_d.terms_out"), "terms/job"),
        "dga.form_mul.self_s": (self_s("dga.form_mul"), "s/job"),
        "dga.form_mul.calls": (calls("dga.form_mul"), "calls/job"),
        "dga.nc_mul.self_s": (self_s("dga.nc_mul"), "s/job"),
        "dga.nc_mul.calls": (calls("dga.nc_mul"), "calls/job"),
        "dga.pbw_words": (per_job("dga.pbw_words"), "words/job"),
        "prelie.check_left_symmetry.self_s":
            (self_s("prelie.check_left_symmetry"), "s/job"),
        "prelie.check_left_symmetry.calls":
            (calls("prelie.check_left_symmetry"), "calls/job"),
        "prelie.check_left_symmetry.nnz_in":
            (per_job("prelie.check_left_symmetry.nnz_in"), "nnz/job"),
        "prelie.other_checks.self_s":
            (module_self_s("prelie", ("prelie.check_left_symmetry",)),
             "s/job"),
        "liebialg.checks.self_s": (module_self_s("liebialg"), "s/job"),
        "constructions.checks.self_s": (module_self_s("constructions"),
                                        "s/job"),
        "metric.check_metric.self_s": (self_s("metric.check_metric"),
                                       "s/job"),
        "metric.form_past_func.self_s": (self_s("metric.form_past_func"),
                                         "s/job"),
        "metric.form_past_func.calls": (calls("metric.form_past_func"),
                                        "calls/job"),
        "metric.scalar_curvature_classical.self_s":
            (self_s("metric.scalar_curvature_classical"), "s/job"),
        "su2.verify.self_s": (self_s("su2.verify_su2_semiclassical",
                                     "su2.verify_su2_bicrossproduct_omega"),
                              "s/job"),
        "group_dga.check_group_dga.self_s":
            (self_s("group_dga.check_group_dga"), "s/job"),
        "group_dga.mul.self_s": (self_s("group_dga.mul"), "s/job"),
        "group_dga.mul.calls": (calls("group_dga.mul"), "calls/job"),
        "trace_overhead": (traced_busy / plain_busy, "ratio"),
        "verdict_mismatch": (client.failed / client.attempted, "share"),
    }
    for module in MODULES:
        share = self_s("cli") if module == "cli" else module_self_s(module)
        metrics[f"split.{module}"] = (100 * share / job_s, "%")
    info = {"rounds": len(rounds), "traced jobs": jobs,
            "spans": len(tracer.spans), "trace file": str(trace_path)}
    return info, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=bench_jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / tag
    workload = bench_jobs.Workload(args.workload, args.seed, work_dir)
    client = Client(cli.main, None if args.trace else SpeedProbe())
    try:
        if args.trace:
            info, metrics = per_layer(client, workload, args.seconds,
                                      OUT / f"spans-{tag}.tsv")
        else:
            info, metrics = end_to_end(client, workload, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"# workload {args.workload}, seed {args.seed}: closed loop, "
          f"1 client, 1 process, no threads; Python "
          f"{platform.python_version()}, nproc {len(os.sched_getaffinity(0))}")
    for key, value in info.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if client.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
