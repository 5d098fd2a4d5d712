"""Summary statistics for benchmark samples and the compare-mode verdicts."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Sequence

# Candidate tail percentiles, highest last.  Strings keep them exact: the
# nearest rank of 99.9 % of 10 000 samples must be 9 990, not 9 991.
TAIL_LADDER = ("50", "75", "90", "95", "99", "99.9")
TAIL_MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], percentile: str) -> float:
    """Value at the nearest rank ceil(q/100 * n) of the sorted samples."""
    ordered = sorted(values)
    rank = max(1, math.ceil(Fraction(percentile) * len(ordered) / 100))
    return ordered[rank - 1]


def samples_beyond(n: int, percentile: str) -> int:
    """Samples ranked above the nearest rank of ``percentile`` among ``n``."""
    return n - math.ceil(Fraction(percentile) * n / 100)


def tail_percentile(n: int) -> str:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it.

    With fewer than twenty samples no percentile qualifies and the median
    (p50) is returned, so the caller always has a value to report.
    """
    chosen = TAIL_LADDER[0]
    for percentile in TAIL_LADDER:
        if samples_beyond(n, percentile) >= TAIL_MIN_BEYOND:
            chosen = percentile
    return chosen


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a 0 median)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(old: Sequence[float], new: Sequence[float], better: str,
            bound: float | None) -> str:
    """Compare two sets of runs of one metric on one workload.

    * ``unresolved``: the run-to-run spread of either side exceeds the bound,
      unless every new run beats every old run (then ``better``);
    * ``worse``: the new median is worse than the old by more than the bound;
    * ``better``: the new median is better by more than the old side's
      interquartile distance and the new side wins at least nine tenths of
      all (old, new) pairs, ties counting for neither;
    * ``unchanged`` otherwise.  Metrics without a bound (per-layer) get
      ``better``/``worse`` by the pair rule alone, else ``unchanged``.
    """
    sign = 1.0 if better == "lower" else -1.0
    o_q1, o_med, o_q3 = quartiles(old)
    _, n_med, _ = quartiles(new)
    pairs = [(sign * (o - n)) for o in old for n in new]
    wins = sum(1 for d in pairs if d > 0)
    losses = sum(1 for d in pairs if d < 0)
    gain = sign * (o_med - n_med)  # positive: new is better
    clearly_better = gain > (o_q3 - o_q1) and wins >= 0.9 * len(pairs)
    clearly_worse = -gain > (o_q3 - o_q1) and losses >= 0.9 * len(pairs)
    if bound is None:
        if clearly_better:
            return "better"
        return "worse" if clearly_worse else "unchanged"
    if max(relative_spread(old), relative_spread(new)) > bound:
        return "better" if wins == len(pairs) else "unresolved"
    if o_med and -gain / abs(o_med) > bound:
        return "worse"
    return "better" if clearly_better else "unchanged"
