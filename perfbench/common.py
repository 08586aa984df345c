"""Shared benchmark plumbing: the metric catalog, percentiles, host
fingerprint, process helpers and the result record every workload fills.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can
report a missing source tree before touching the package.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for sockets, stores and trace files (git-ignored)
RUN_DIR = Path(".perfbench")

#: end-to-end metrics, every one reported by every workload; the reading
#: each workload gives them is in README.md ("End-to-end metrics")
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("overhead_p50_ms", "ms", "lower"),
    ("goodput_per_s", "1/s", "higher"),
    ("fp_nines", "log10", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: per-layer metrics of the traced run; a layer a workload never enters
#: reports 0 ("no work here" is the expected reading on a control workload)
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("loadgen.lag_p95_ms", "ms", "lower"),
    ("service.rtt_overhead_p50_ms", "ms", "lower"),
    ("service.queue_wait_p50_ms", "ms", "lower"),
    ("service.queue_wait_p95_ms", "ms", "lower"),
    ("service.cold.lag_p50_ms", "ms", "lower"),
    ("service.cold.protocol_p50_ms", "ms", "lower"),
    ("service.cold.queue_p50_ms", "ms", "lower"),
    ("service.cold.engine_store_p50_ms", "ms", "lower"),
    ("service.cold.solver_p50_ms", "ms", "lower"),
    ("service.cold.breakdown_error_share", "ratio", "lower"),
    ("engine.batch.overhead_cold_p50_ms", "ms", "lower"),
    ("engine.batch.overhead_warm_p50_ms", "ms", "lower"),
    ("engine.store.hit_ratio", "ratio", "higher"),
    ("engine.store.get_p50_ms", "ms", "lower"),
    ("engine.store.put_p50_ms", "ms", "lower"),
    ("engine.store.gets", "count", "lower"),
    ("engine.store.puts", "count", "lower"),
    ("engine.registry.solves", "count", "lower"),
    ("engine.registry.greedy-min-fp.solve_p50_ms", "ms", "lower"),
    ("engine.registry.local-search-min-fp.solve_p50_ms", "ms", "lower"),
    ("engine.registry.anneal-min-fp.solve_p50_ms", "ms", "lower"),
    ("engine.sweeps.overhead_s", "s", "lower"),
    ("algorithms.heuristics.greedy.busy_s", "s", "lower"),
    ("algorithms.heuristics.local_search.busy_s", "s", "lower"),
    ("algorithms.heuristics.local_search.steps", "count", "lower"),
    ("algorithms.heuristics.anneal.busy_s", "s", "lower"),
    ("algorithms.heuristics.anneal.proposals_per_s", "1/s", "higher"),
    ("algorithms.bicriteria.exhaustive.busy_s", "s", "lower"),
    ("algorithms.bicriteria.exhaustive.explored", "count", "lower"),
    ("core.metrics_bulk.calls", "count", "lower"),
    ("core.metrics_bulk.rows", "count", "lower"),
    ("core.metrics_bulk.busy_s", "s", "lower"),
    ("core.metrics_bulk.rows_per_s", "1/s", "higher"),
    ("core.metrics.cache_hit_ratio", "ratio", "higher"),
    ("core.metrics.scalar_calls", "count", "lower"),
    ("simulation.kernel.steps", "count", "lower"),
    ("simulation.kernel.steps_per_s", "1/s", "higher"),
    ("simulation.kernel.busy_s", "s", "lower"),
    ("simulation.dynamic.resolves", "count", "lower"),
    ("simulation.dynamic.resolve_p50_ms", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

#: fresh-process set-ups timed per run; setup_s is their median
SETUP_REPEATS = 5
#: how a set-up (process spawn, imports, first input) follows the
#: host-speed reference (hostspeed.py): with the simulations' 1.0 the
#: set-up medians of slow-host runs read 25% below the others
SETUP_ELASTICITY = 0.5


def work_units(seconds: float, unit_seconds: float) -> int:
    """How many units of work fill ``seconds`` at a unit's nominal cost.

    Runs do a fixed amount of work sized from ``--seconds`` (at least
    two units, so a median exists) rather than stopping on the clock: a
    seed then always means the same inputs, and its counts and quality
    metrics repeat exactly whatever the host's speed.
    """
    return max(2, round(seconds / unit_seconds))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]); ``nan`` when empty.

    The one percentile definition of the benchmark: the smallest sample
    with at least ``q`` percent of the samples at or below it.
    """
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


#: tail levels :func:`tail_percentile` tries, highest first
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values: Sequence[float]) -> tuple[float, float]:
    """``(q, value)`` for the highest ``q`` with >= 10 samples above it.

    A tail percentile backed by fewer samples beyond it is noise; this
    picks the highest of :data:`TAIL_LEVELS` the sample count supports
    (``(nan, nan)`` when even the median is not supported).
    """
    n = len(values)
    for q in TAIL_LEVELS:
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q, percentile(values, q)
    return math.nan, math.nan


def median(values: Iterable[float]) -> float:
    """Nearest-rank median (the p50 of :func:`percentile`)."""
    return percentile(values, 50)


def nines(fp: float) -> float:
    """Reliability as ``-log10 FP`` (higher is better)."""
    return -math.log10(fp)


# ----------------------------------------------------------------------
# result record
# ----------------------------------------------------------------------
@dataclass
class Metric:
    value: float
    unit: str
    better: str
    samples: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "value": self.value,
            "unit": self.unit,
            "better": self.better,
            "samples": self.samples,
        }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    attempted: int = 0
    failed: int = 0
    #: end-to-end (untraced) or per-layer (traced) metrics by name
    metrics: dict[str, Metric] = field(default_factory=dict)
    #: workload-specific readings under their own names (report only)
    details: dict[str, Metric] = field(default_factory=dict)
    #: correctness checks: name -> (passed, detail)
    checks: dict[str, tuple[bool, str]] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)

    def check(
        self, name: str, passed: bool, detail: str = "", failures: int = 1
    ) -> None:
        """Record a correctness check; a failed one adds ``failures``
        (the operations it condemns) to :attr:`failed`."""
        self.checks[name] = (bool(passed), detail)
        if not passed:
            self.failed += failures

    @property
    def correct(self) -> bool:
        return all(passed for passed, _ in self.checks.values())


def catalog_metrics(
    catalog: Sequence[tuple[str, str, str]],
    values: dict[str, tuple[float, int]],
) -> dict[str, Metric]:
    """Typed metrics for every catalog entry; a missing value reads 0."""
    out: dict[str, Metric] = {}
    for name, unit, better in catalog:
        value, samples = values.get(name, (0.0, 0))
        out[name] = Metric(float(value), unit, better, int(samples))
    return out


# ----------------------------------------------------------------------
# host + processes
# ----------------------------------------------------------------------
def host_fingerprint() -> dict[str, Any]:
    """Where the numbers came from (cores, interpreter, numeric stack)."""
    try:
        import numpy

        numpy_version: str | None = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": has_numba,
        "bulk_path": "jit" if has_numba else ("numpy" if numpy_version else "python"),
        "commit": _git_commit(),
        "source_sha256": source_digest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of
    its own (an enclosing repository's HEAD would name other code)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """Content hash of ``src/`` (identifies the code when git is absent)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def self_peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live child process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def setup_times(measure: Callable[[], float]) -> list[float]:
    """``SETUP_REPEATS`` set-up timings from ``measure`` (raw seconds),
    each taken to nominal host speed."""
    from .hostspeed import timed

    out = []
    for _ in range(SETUP_REPEATS):
        raw, _, scale = timed(measure, SETUP_ELASTICITY)
        out.append(raw * scale)
    return out


def time_probe(workload: str, seed: int) -> float:
    """Seconds from spawning ``perfbench.probe`` to its ``ready`` line.

    The child imports the package and builds the workload's first input
    from scratch, so import-time and construction work both count.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.probe", workload, str(seed)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"{workload} set-up probe failed (exit {code})")
    return elapsed


def rescore(
    application: Any,
    platform: Any,
    threshold: float,
    mapping: Any,
    reported_latency: float,
    reported_fp: float,
) -> str | None:
    """Re-score an answer with scalar ``core.metrics``; None when it holds.

    The latency must meet the threshold and both objectives must match
    what the solver reported (1e-9, relative for latency).
    """
    from repro.core.metrics import failure_probability, latency

    lat = latency(mapping, application, platform)
    fp = failure_probability(mapping, platform)
    if lat > threshold + 1e-9 * max(1.0, threshold):
        return f"latency {lat!r} exceeds threshold {threshold!r}"
    if abs(lat - reported_latency) > 1e-9 * max(1.0, lat):
        return f"latency {reported_latency!r} re-scores as {lat!r}"
    if abs(fp - reported_fp) > 1e-9:
        return f"FP {reported_fp!r} re-scores as {fp!r}"
    return None


def run_dir() -> Path:
    """A fresh per-process scratch directory (relative: socket paths
    must stay under the 108-byte AF_UNIX limit)."""
    path = RUN_DIR / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
