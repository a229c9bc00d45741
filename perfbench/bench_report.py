"""Reporting rules and provenance for the benchmark.

Every timing is reported as a median plus the highest percentile that has
at least ten samples beyond it, together with the sample count.
"""

from __future__ import annotations

import os
import platform
import statistics
from pathlib import Path

# Percentiles tried for the tail, highest first, in tenths of a percent so
# the sample arithmetic stays exact.
TAIL_PERMILLE = (999, 990, 900)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated p-th percentile (0 <= p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int) -> float | None:
    """Highest percentile in TAIL_PERMILLE with at least MIN_BEYOND of
    ``count`` samples beyond it, or None when even p90 has too few."""
    for q in TAIL_PERMILLE:
        if count * (1000 - q) >= MIN_BEYOND * 1000:
            return q / 10
    return None


def summarize(values) -> dict:
    """Median, the highest well-sampled tail percentile and the count."""
    p = tail_percentile(len(values))
    return {
        "count": len(values),
        "median": statistics.median(values),
        "tail_pct": p,
        "tail": None if p is None else percentile(values, p),
    }


def git_commit(root: Path) -> str:
    """Commit of a git checkout at ``root``, read from .git without running
    git; "unknown" for an exported tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, workload: str, seed: int, mul_config) -> dict:
    """What produced a result: backend, interpreter, cores, seed, commit."""
    env_threshold = os.environ.get("KRONMUL_KARATSUBA_THRESHOLD")
    return {
        "workload": workload,
        "seed": seed,
        "mul_config": {"karatsuba_threshold": mul_config.karatsuba_threshold,
                       "classical_only": mul_config.classical_only},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "KRONMUL_KARATSUBA_THRESHOLD": env_threshold,
    }
