"""Pure arithmetic of the benchmark: quantiles, SLO rate, failure share,
span self time and run-to-run spread.

Nothing here reads a clock or touches the program under test, so
``test_perfbench.py`` pins every formula without timing assertions.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

#: Percentiles a timing may be reported at, lowest first, in tenths of a
#: percent (integers keep the samples-beyond test exact).  A timing
#: reports the highest one that has at least ``MIN_BEYOND`` samples
#: beyond it.
PERCENTILE_LADDER = (500, 750, 900, 950, 990, 995, 999)
MIN_BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) with linear interpolation between order
    statistics (NumPy's default method); ``nan`` for no samples."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not values:
        return float("nan")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def supported_percentile(samples: int) -> float | None:
    """Highest ladder percentile with >= ``MIN_BEYOND`` samples beyond it,
    or ``None`` when even the median is not supported."""
    best = None
    for permille in PERCENTILE_LADDER:
        if samples * (1000 - permille) >= MIN_BEYOND * 1000:
            best = permille / 10
    return best


def summarize(values: Sequence[float]) -> dict:
    """Median, p99, and the highest supported percentile of ``values``,
    with the sample count each rests on."""
    top = supported_percentile(len(values))
    return {
        "n": len(values),
        "p50": quantile(values, 0.5),
        "p99": quantile(values, 0.99),
        "top_percentile": top,
        "top": quantile(values, top / 100.0) if top is not None else float("nan"),
    }


def failed_share(attempted: int, failed: int, shed: int, wrong: int) -> float:
    """(failed + shed + wrong-logit requests) / requests attempted."""
    if attempted < 1:
        raise ValueError("failed_share needs at least one attempted request")
    return (failed + shed + wrong) / attempted


def slo_share(latencies: Iterable[float | None], limit: float) -> float:
    """Share of requests sent that settled correctly within ``limit``.

    ``None`` marks a request that was shed, failed or returned wrong
    logits: it misses the limit whatever its latency.
    """
    sent = 0
    met = 0
    for latency in latencies:
        sent += 1
        if latency is not None and latency <= limit:
            met += 1
    return met / sent if sent else 0.0


def slo_rate(phases: Iterable[tuple[float, float, bool]], target: float) -> float:
    """Highest offered rate whose SLO share reaches ``target`` with no
    growing backlog; ``0.0`` when no rate qualifies.

    Each phase is ``(offered_rate, slo_share, backlog_ok)``.
    """
    qualifying = [
        rate for rate, share, backlog_ok in phases
        if share >= target and backlog_ok
    ]
    return max(qualifying, default=0.0)


def covered(
    start: float, end: float, intervals: Iterable[tuple[float, float]]
) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    cursor = start
    for s, e in clipped:
        if e <= cursor:
            continue
        total += e - max(s, cursor)
        cursor = e
    return total


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(start, end, children)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the steadiness
    figure a metric's bound is judged against)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
