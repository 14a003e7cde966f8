"""Small statistics shared by the workloads."""

from __future__ import annotations

import math
import resource
import statistics
from collections import Counter
from typing import Callable, Dict, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1]); 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def lattice_percentile(samples: Sequence[float], fraction: float, step: float) -> float:
    """Percentile of samples that lie on a lattice of spacing ``step``.

    Simulated latencies are sums of fixed delays, so they take few values
    and a nearest-rank percentile jumps a whole step when a seed moves a
    little mass across it. Here each lattice value is read as spread evenly
    over its step (the grouped-data median formula), so the percentile
    moves in proportion to the mass that moved. 0.0 when empty.
    """
    if not samples:
        return 0.0
    counts = Counter(round(sample / step) for sample in samples)
    target = fraction * len(samples)
    below = 0
    for point in sorted(counts):
        count = counts[point]
        if below + count >= target:
            return (point - 0.5 + (target - below) / count) * step
        below += count
    return max(counts) * step


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def loglog_slope(stamps: Sequence[float], *, points: int = 12) -> float:
    """Slope of log(wall time) against log(ops done), from ``stamps``.

    ``stamps[k]`` is the wall time (from the start of the run) at which the
    ``k+1``-th op committed. The fit skips the first eighth of the run,
    where start-up dominates, and samples geometrically spaced ranks.
    """
    total = len(stamps)
    if total < 16:
        return 0.0
    low = total // 8
    ranks = sorted(
        {round(low * (total / low) ** (i / (points - 1))) for i in range(points)}
    )
    xs = [math.log(rank) for rank in ranks]
    ys = [math.log(max(stamps[rank - 1], 1e-9)) for rank in ranks]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size of this process (or its waited children)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def latency_metrics(
    weak: Sequence[float],
    strong: Sequence[float],
    unit: str,
    scale: float = 1.0,
    quantile: Callable[[Sequence[float], float], float] = percentile,
) -> Dict[str, float]:
    """Median and tail of weak and strong latencies, by ``quantile``.

    Strong ops are a tenth of the traffic, so their tail is the 90th
    percentile: the highest that keeps enough samples beyond it.
    """
    return {
        f"weak_p50_{unit}": quantile(weak, 0.50) * scale,
        f"weak_p99_{unit}": quantile(weak, 0.99) * scale,
        f"strong_p50_{unit}": quantile(strong, 0.50) * scale,
        f"strong_p90_{unit}": quantile(strong, 0.90) * scale,
    }
