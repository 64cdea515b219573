"""Benchmark harness: drift adaptation, accuracy proxy, latency.

Three groups of helpers.  Window-size reaction statistics around a known
drift point; a directly-follows accuracy proxy that scores a window's
pair set against a ground-truth regime; and per-window latency of the
per-event path.  Throughput is measured by ``perfbench/``.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from statistics import correlation, fmean, median, pstdev, quantiles
from typing import Iterable, Sequence

from .driftgen import VariantPool, case_number
from .views import Event, SpeciesView, ViewConfig
from .window import AdaptiveWindow, ThresholdState, Windower, WindowRecord


def run_stream(events: Iterable[Event], strategy: Windower) -> list[WindowRecord]:
    """Feed every event, then flush; returns all closed windows."""
    records = [r for e in events if (r := strategy.process_event(e)) is not None]
    final = strategy.flush()
    if final is not None:
        records.append(final)
    return records


def first_window_at_case(records: Sequence[WindowRecord], case_index: int) -> int:
    """Index of the first window that contains a case >= case_index.

    Maps a ground-truth drift case index onto the window axis of a run
    over a generated stream.
    """
    for w, record in enumerate(records):
        if any(case_number(e.case_id) >= case_index for e in record.events):
            return w
    raise ValueError(f"no window reaches case {case_index}")


@dataclass(frozen=True)
class DriftAdaptationReport:
    """Window-size reaction in a fixed span around one drift point.

    The span is the half-open run of ``before + after`` windows starting
    ``before`` windows ahead of the drift window.  Relative changes are
    |s[j+1] - s[j]| / s[j] over consecutive span windows.
    """

    drift_window: int
    mean_relative_change: float
    std_relative_change: float
    coefficient_of_variation: float
    pre_mean: float
    during_mean: float
    post_mean: float


def drift_adaptation_stats(
    sizes: Sequence[int],
    drift_window: int,
    before: int = 10,
    after: int = 20,
) -> DriftAdaptationReport:
    """Score how window sizes reacted around ``drift_window``.

    ``during`` is the first half of the after-drift windows, ``post`` the
    second half.  Raises ValueError when fewer than ``before`` windows
    precede the drift or fewer than ``after`` follow it.
    """
    if before < 1 or after < 2:
        raise ValueError("need before >= 1 and after >= 2")
    if drift_window - before < 0 or drift_window + after > len(sizes):
        raise ValueError(
            f"need {before} windows before and {after} from window "
            f"{drift_window}, have {len(sizes)} total"
        )
    span = sizes[drift_window - before : drift_window + after]
    rel = [abs(b - a) / a for a, b in zip(span, span[1:])]
    after_span = span[before:]
    half = after // 2
    return DriftAdaptationReport(
        drift_window=drift_window,
        mean_relative_change=fmean(rel),
        std_relative_change=pstdev(rel),
        coefficient_of_variation=pstdev(span) / fmean(span),
        pre_mean=fmean(span[:before]),
        during_mean=fmean(after_span[:half]),
        post_mean=fmean(after_span[half:]),
    )


# --- directly-follows accuracy proxy ---------------------------------------


@dataclass(frozen=True)
class DfgAccuracy:
    precision: float
    recall: float
    f1: float


def df_pairs(events: Iterable[Event]) -> set[tuple[str, str]]:
    """Set of within-case directly-follows pairs in an event sequence."""
    last: dict[str, str] = {}
    pairs: set[tuple[str, str]] = set()
    for event in events:
        previous = last.get(event.case_id)
        if previous is not None:
            pairs.add((previous, event.activity))
        last[event.case_id] = event.activity
    return pairs


def pool_reference_pairs(pool: VariantPool) -> set[tuple[str, str]]:
    """All directly-follows pairs a pool's variants can produce."""
    pairs: set[tuple[str, str]] = set()
    for sequence, _ in pool.variants:
        pairs.update(zip(sequence, sequence[1:]))
    return pairs


def dfg_accuracy(
    window_pairs: set[tuple[str, str]], reference_pairs: set[tuple[str, str]]
) -> DfgAccuracy:
    """Set precision/recall/F1 of a window's pairs against a reference.

    An empty window scores zero precision by convention; an empty
    reference is a caller error.
    """
    if not reference_pairs:
        raise ValueError("reference pair set must be non-empty")
    hits = len(window_pairs & reference_pairs)
    precision = hits / len(window_pairs) if window_pairs else 0.0
    recall = hits / len(reference_pairs)
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return DfgAccuracy(precision, recall, f1)


@dataclass(frozen=True)
class StrategySummary:
    strategy: str
    windows: int
    mean_precision: float
    mean_recall: float
    mean_f1: float


def majority_pool(record: WindowRecord, pool_per_case: Sequence[int]) -> int:
    """Pool index that most of the window's events belong to."""
    counts = Counter(pool_per_case[case_number(e.case_id)] for e in record.events)
    return min(counts, key=lambda pool: (-counts[pool], pool))


def summarize_accuracy(
    name: str,
    records: Sequence[WindowRecord],
    pool_per_case: Sequence[int],
    pools: Sequence[VariantPool],
) -> StrategySummary:
    """Mean DFG accuracy over all windows of one strategy's run.

    Each window is scored against the reference pairs of its own
    majority regime, so drift-straddling windows pay for mixing regimes.
    """
    references = [pool_reference_pairs(pool) for pool in pools]
    scores = [
        dfg_accuracy(df_pairs(r.events), references[majority_pool(r, pool_per_case)])
        for r in records
    ]
    if not scores:
        raise ValueError("no windows to score")
    return StrategySummary(
        strategy=name,
        windows=len(scores),
        mean_precision=fmean(s.precision for s in scores),
        mean_recall=fmean(s.recall for s in scores),
        mean_f1=fmean(s.f1 for s in scores),
    )


# --- latency ----------------------------------------------------------------


@dataclass(frozen=True)
class LatencyRow:
    window_size: int
    median_seconds: float
    p95_seconds: float
    min_seconds: float

    @classmethod
    def from_samples(cls, window_size: int, times: Sequence[float]) -> LatencyRow:
        """Median, inclusive 95th percentile and minimum of the timings."""
        # quantiles() needs two points; one sample is its own percentile
        p95 = times[0]
        if len(times) > 1:
            p95 = quantiles(times, n=20, method="inclusive")[18]
        return cls(window_size, median(times), p95, min(times))


def _synthetic_events(count: int) -> list[Event]:
    """``count`` events cycling through 10 activities and 5 cases."""
    return [Event(f"c{i % 5}", f"a{i % 10}", (i + 1) * 100) for i in range(count)]


def _time_one_window(events: Sequence[Event]) -> float:
    window = AdaptiveWindow(
        SpeciesView(ViewConfig()), ThresholdState(), min_window_size=len(events)
    )
    start = time.perf_counter()
    run_stream(events, window)
    return time.perf_counter() - start


def measure_latency(sizes: Sequence[int], trials: int = 7) -> list[LatencyRow]:
    """Wall time from first event to window emission, per target size.

    Each sample drives a fresh adaptive pipeline whose minimum window
    size pins the close to exactly ``n`` events, so the measurement
    covers the full per-event path (species extraction, estimation,
    threshold update) plus the close itself.  Every trial visits all
    sizes in turn, so a slow spell of the machine lands on several sizes
    instead of on all trials of one; ``min_seconds``, the fastest trial,
    is the estimate least disturbed by such spells.
    """
    if trials < 1 or not sizes:
        raise ValueError("need at least one trial and one window size")
    streams = [_synthetic_events(n) for n in sizes]
    samples: list[list[float]] = [[] for _ in sizes]
    for _ in range(trials):
        for events, out in zip(streams, samples):
            out.append(_time_one_window(events))
    return [LatencyRow.from_samples(n, times) for n, times in zip(sizes, samples)]


def linear_fit_r2(xs: Sequence[float], ys: Sequence[float]) -> float:
    """R^2 of the least-squares line through (xs, ys), the squared correlation."""
    if len(set(xs)) < 2:
        raise ValueError("a line fit needs at least two distinct x values")
    if len(set(ys)) < 2:
        return 1.0  # a flat target is fitted exactly
    return correlation(xs, ys) ** 2
