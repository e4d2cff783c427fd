"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import resource
import statistics
from pathlib import Path


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[rank - 1]


def p50(values: list[float]) -> float:
    return statistics.median(values)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def db_bytes(project: Path) -> int:
    """Bytes of a project's SQLite database on disk, WAL included."""
    flor = project / ".flor"
    return sum(p.stat().st_size for p in flor.glob("flor.db*") if p.is_file())

