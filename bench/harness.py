"""One benchmark run: set-up, a closed-loop timed run, checks and metrics.

One caller in one thread drives ``wiretap_mimo.cli.main`` in-process and
sends its next op only after the previous one returned (a closed loop).
The timed loop makes one whole pass through the op pool and adds whole
passes while the last one still fits in the run's seconds, so the mix of
ops is the same in every run.  Counts that must repeat exactly for one seed
(error_frac, wrong_frac, the output digest) come from the first pass.
Timings count only the time spent inside ``cli.main``: points_per_s and the
mean op time over every execution, the tail percentile over each op's
median time.  The median op time goes to the details line only: the pools
hold equal shares of fast and slow channel classes, so the median falls in
the gap between them and jumps from seed to seed.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import spans
import workloads

SETUP_REPEATS = 5
HELD_OUT_SEED = 7919
TAIL_OPS = 10          # executions that must lie beyond the tail percentile
MAX_LISTED_FLAGS = 50


@dataclass
class Pass:
    """Closed-loop passes through the pool.  Only the first pass's outputs
    are kept; a repeated op is compared with its first table and dropped,
    so the harness's own memory does not grow with the run."""
    first: list = field(default_factory=list)   # invocations per pool op
    points: list = field(default_factory=list)  # rows per point, per pool op
    tables: list = field(default_factory=list)  # emitted table per pool op
    times: list = field(default_factory=list)   # seconds in cli.main, per execution
    passes: int = 0
    answered: int = 0      # points answered, over every execution
    requested: int = 0
    mismatches: list = field(default_factory=list)
    peak_rss_mb: float = 0.0   # when the first pass through the pool ended

    @property
    def points_per_s(self) -> float:
        return self.answered / sum(self.times)


def _run_ops(spec, ops, seconds: float, tracer=None) -> Pass:
    """One whole pass through the pool, then more while the last pass
    still fits in ``seconds`` from the start."""
    run = Pass()
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.current_op = op.index
            inv = workloads.execute(spec, op)
            run.times.append(sum(x.seconds for x in inv))
            if run.passes == 0:
                run.first.append(inv)
                run.points.append(workloads.point_rows(spec, inv))
                run.tables.append(workloads.emitted_table(inv))
            elif workloads.emitted_table(inv) != run.tables[op.index]:
                run.mismatches.append(f"op {op.index}: repeat output differs")
            run.answered += sum(p is not None for p in run.points[op.index])
            run.requested += len(run.points[op.index])
        if run.passes == 0:
            run.peak_rss_mb = _peak_rss_mb()
        run.passes += 1
        now = perf_counter()
        if (now - t_start) + (now - t_pass) > seconds:
            return run


def _tail(times: list[float], n_ops: int) -> tuple[float, float]:
    """Highest percentile with at least TAIL_OPS pool ops beyond it, and its
    value, over each op's median time across its passes: the tail of the
    slow channels, not of the odd execution that a scheduler hiccup hit.
    A pool of fewer than 2 * TAIL_OPS ops (oracle_mc) has no such
    percentile above the median; its tail is taken just above it."""
    ordered = sorted(statistics.median(times[i::n_ops]) for i in range(n_ops))
    n = len(ordered)
    k = max(n - TAIL_OPS - 1, n // 2)
    return 100.0 * (k + 1) / n, ordered[k]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in os.environ.items()
                         if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def _setup(spec, seed, per_cell, workroot):
    """Generate the pool, write its scenario files and run one warm-up point,
    SETUP_REPEATS times; returns the median time and the last pool."""
    durations = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workdir = tempfile.mkdtemp(prefix="run-", dir=workroot)
        ops = workloads.generate(spec, seed, per_cell)
        workloads.write_scenarios(ops, workdir)
        # one point: a whole sweep's cost depends on where the seed's first
        # channel aborts, and a whole oracle op takes seconds
        workloads.invoke([spec.command, "--input",
                          workloads.point_scenario(spec, ops[0], 0)])
        durations.append(perf_counter() - t0)
        if len(durations) < SETUP_REPEATS:
            shutil.rmtree(workdir)
    return statistics.median(durations), ops, workdir


def _first_pass_outcomes(spec, ops, run: Pass):
    """Answered, requested and wrong points of the first pass, the flagged
    rows and the digest of every emitted table."""
    flags, wrong = [], 0
    for op, inv, points in zip(ops, run.first, run.points):
        op_flags = workloads.check_op(spec, op, points)
        wrong += len({i for i, _ in op_flags})
        flags += [msg for _, msg in op_flags]
        bad_exit = [x.code for x in inv if x.code not in (0, 2)]
        if bad_exit:
            flags.append(f"op {op.index}: unexpected exit codes {bad_exit}: "
                         f"{inv[0].err.strip()[:200]}")
    answered = sum(p is not None for points in run.points for p in points)
    requested = sum(len(points) for points in run.points)
    digest = hashlib.sha256("".join(run.tables).encode()).hexdigest()
    return answered, requested, wrong, flags + run.mismatches, digest


def run(workload: str, seed: int, seconds: float, trace: bool,
        import_s: float = 0.0, per_cell: int | None = None,
        spans_out: str | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details)."""
    spec = workloads.WORKLOADS[workload]
    workroot = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")
    os.makedirs(workroot, exist_ok=True)
    setup_s, ops, workdir = _setup(spec, seed, per_cell, workroot)
    try:
        if trace:
            timed = _run_ops(spec, ops, 0.0)
            with spans.Tracer() as tracer:
                traced = _run_ops(spec, ops, 0.0, tracer)
        else:
            timed = _run_ops(spec, ops, seconds)
    finally:
        shutil.rmtree(workdir)

    answered, requested, wrong, flags, digest = _first_pass_outcomes(
        spec, ops, timed)
    wrong_frac = wrong / answered if answered else 0.0
    if trace and traced.tables != timed.tables:
        flags.append("traced pass output differs from the untraced pass")
    details = {
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "classes": list(spec.classes), "m": list(spec.ms),
        "pool_ops": len(ops), "grid_db": list(spec.grid),
        "error_frac": 1.0 - answered / requested,
        "wrong_frac": wrong_frac,
        "digest_sha256": digest,
        "flagged": flags[:MAX_LISTED_FLAGS], "flagged_total": len(flags),
        "import_s": import_s,
        "environment": environment(),
    }
    if trace:
        summary = tracer.summary()
        metrics = spans.layer_metrics(
            summary, requested, len(ops), tracer.eigh_total,
            workloads.ORACLE_SAMPLES)
        metrics["trace.overhead_frac"] = (
            1.0 - traced.points_per_s / timed.points_per_s, "frac")
        details["coverage_problems"] = spans.coverage(workload, summary)
        details["spans"] = len(tracer.name_id)
        details["counted_calls"] = dict(tracer.counts, eigh=tracer.eigh_total,
                                        secrecy_mode_powers=tracer.evals_total)
        details["eigh_by_innermost_span"] = {
            name: row["eigh_self"] for name, row in summary.items()
            if row["eigh_self"]}
        tracer.write(spans_out or os.path.join(workroot, f"spans-{workload}.tsv"))
    else:
        tail_pct, tail_s = _tail(timed.times, len(ops))
        details.update(passes=timed.passes, executions=len(timed.times),
                       tail_percentile=tail_pct, timed_s=sum(timed.times),
                       op_p50_ms=statistics.median(timed.times) * 1e3)
        metrics = {
            "setup_s": (import_s + setup_s, "s"),
            "points_per_s": (timed.points_per_s, "1/s"),
            "op_mean_ms": (statistics.fmean(timed.times) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "answered_frac": (answered / requested, "frac"),
            "right_frac": (1.0 - wrong_frac, "frac"),
            "peak_rss_mb": (timed.peak_rss_mb, "MB"),
        }
    result = {
        "correct": not flags,
        "attempted": timed.requested,
        "failed": timed.requested - timed.answered,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def report_flags(details: dict) -> None:
    for msg in details["flagged"]:
        print(f"flagged: {msg}", file=sys.stderr)
