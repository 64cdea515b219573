"""Incremental abundance statistics with richness and coverage estimators.

Species observations are counted one at a time.  Alongside the raw
per-species counts the structure maintains the number of singletons (f1)
and doubletons (f2), because every estimator below depends only on
(n, s_n, f1, f2).  Both frequency counters can be adjusted from the new
count of the observed species alone, which keeps ``observe`` O(1).
"""

from __future__ import annotations


class AbundanceStats:
    """Species counts for one open window.

    Single-writer: exactly one stream pipeline mutates an instance.
    """

    __slots__ = ("n", "counts", "f1", "f2")

    def __init__(self) -> None:
        self.n = 0
        self.counts: dict[str, int] = {}
        self.f1 = 0
        self.f2 = 0

    @property
    def s_n(self) -> int:
        """Number of distinct species observed so far."""
        return len(self.counts)

    def observe(self, species: str) -> None:
        """Count one observation of ``species``.

        Only the transitions 0->1, 1->2 and 2->3 can change f1/f2, so the
        update needs no scan over the count table.
        """
        count = self.counts.get(species, 0) + 1
        self.counts[species] = count
        self.n += 1
        if count == 1:
            self.f1 += 1
        elif count == 2:
            self.f1 -= 1
            self.f2 += 1
        elif count == 3:
            self.f2 -= 1


def coverage(stats: AbundanceStats) -> float:
    """Estimated probability that the next observation is a known species.

    1 - (f1 / n) * (1 - 2 f2 / ((n - 1) f1 + 2 f2)), clamped to [0, 1].
    Conventions for the degenerate inputs: an empty sample has coverage
    0.0; a sample without singletons has coverage 1.0; a single lone
    observation (n == 1, f1 == 1, f2 == 0, where the correction term has
    a zero denominator) carries no reobservation evidence and gets 0.0.
    """
    n = stats.n
    if n == 0:
        return 0.0
    f1 = stats.f1
    if f1 == 0:
        return 1.0
    f2 = stats.f2
    denom = (n - 1) * f1 + 2 * f2
    if denom == 0:
        return 0.0
    value = 1.0 - (f1 / n) * (1.0 - 2.0 * f2 / denom)
    # the clamp min(1.0, max(0.0, value)) as comparisons: NaN gives 0.0
    if value >= 1.0:
        return 1.0
    return value if value > 0.0 else 0.0


def estimates(stats: AbundanceStats) -> tuple[float, float, float]:
    """``(chao1, completeness, coverage)`` from one state, chao1 evaluated once.

    chao1, the lower bound on the number of species, is s_n + f1^2 / (2 f2),
    or the bias-corrected s_n + f1 (f1 - 1) / 2 when no doubletons exist.
    completeness, the observed share of that richness, is s_n / chao1: 1.0
    exactly when no singletons remain.  An empty sample gives all zeros.
    """
    if stats.n == 0:
        return 0.0, 0.0, 0.0
    s_n = len(stats.counts)
    f1 = stats.f1
    f2 = stats.f2
    if f2 > 0:
        c1 = s_n + (f1 * f1) / (2.0 * f2)
    else:
        c1 = s_n + (f1 * (f1 - 1)) / 2.0
    return c1, s_n / c1, coverage(stats)
