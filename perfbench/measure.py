"""Summary statistics and failure accounting for the pfo benchmark.

Percentiles use the nearest-rank rule on a sorted sample.  A tail
percentile is reported only when at least `MIN_BEYOND` samples lie above
it, so a p90 needs at least 100 samples.
"""

from __future__ import annotations

import statistics

MIN_BEYOND = 10
# candidate percentiles in per mille, so that rank arithmetic stays exact
PERCENTILES_PERMILLE = (500, 900, 990, 999)


def rank(n: int, permille: int) -> int:
    """1-based nearest rank of the `permille`/1000 quantile among `n` samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(1, -(-n * permille // 1000))


def samples_beyond(n: int, permille: int) -> int:
    return n - rank(n, permille)


def tail_permille(n: int) -> int | None:
    """Highest candidate percentile with at least MIN_BEYOND samples above it."""
    best = None
    for q in PERCENTILES_PERMILLE:
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def percentile(values, permille: int) -> float:
    ordered = sorted(values)
    return ordered[rank(len(ordered), permille) - 1]


def tail_percentile(values, permille: int) -> float:
    """The `permille` percentile, refused when the rule leaves too few samples."""
    best = tail_permille(len(values))
    if best is None or best < permille:
        raise ValueError(
            f"{len(values)} samples leave fewer than {MIN_BEYOND} beyond "
            f"p{permille / 10:g}"
        )
    return percentile(values, permille)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for exact counts)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(q2)


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Tally:
    """Checks attempted and failed; keeps the first few failure messages."""

    KEEP = 10

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.KEEP:
                self.failures.append(what)
        return ok

    def merge(self, attempted: int, failed: int, failures) -> None:
        self.attempted += attempted
        self.failed += failed
        self.failures.extend(failures[: self.KEEP - len(self.failures)])

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def count_mismatches(first: dict, second: dict) -> list[str]:
    """Keys whose exact counts differ between two runs of the same seed."""
    return [
        f"{k}: {first.get(k)} != {second.get(k)}"
        for k in sorted(set(first) | set(second))
        if first.get(k) != second.get(k)
    ]
