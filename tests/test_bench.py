"""Benchmark helpers: drift statistics, accuracy proxy, latency."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from coverwin import (
    BaselineConfig,
    BaselineWindow,
    Event,
    SpeciesView,
    ViewConfig,
)
from coverwin.bench import (
    DfgAccuracy,
    LatencyRow,
    df_pairs,
    dfg_accuracy,
    drift_adaptation_stats,
    first_window_at_case,
    linear_fit_r2,
    majority_pool,
    measure_latency,
    pool_reference_pairs,
    run_stream,
    summarize_accuracy,
)
from coverwin.driftgen import builtin_scenario, generate, make_pool
from coverwin.window import WindowRecord

from conftest import make_events


def count_strategy(count):
    return BaselineWindow(
        SpeciesView(ViewConfig("activity_ngram")),
        BaselineConfig("count_tumbling", count=count),
    )


def record_for(case_ids, index=0):
    events = tuple(Event(c, "A", 1000 + i) for i, c in enumerate(case_ids))
    return WindowRecord(
        index=index,
        events=events,
        size=len(events),
        first_ts=events[0].timestamp,
        last_ts=events[-1].timestamp,
        coverage=1.0,
        completeness=1.0,
        chao1=1.0,
        threshold=0.0,
    )


# --- run plumbing ------------------------------------------------------------


def test_run_stream_appends_flushed_tail():
    records = run_stream(make_events("ABCDE"), count_strategy(2))
    assert [r.size for r in records] == [2, 2, 1]
    assert records[-1].force_closed


def test_run_stream_no_tail_when_exact():
    records = run_stream(make_events("ABCD"), count_strategy(2))
    assert [r.size for r in records] == [2, 2]
    assert not records[-1].force_closed


def test_first_window_at_case():
    events = [Event(f"c{i}", "A", 1000 + i) for i in range(10)]
    records = run_stream(events, count_strategy(4))
    assert first_window_at_case(records, 0) == 0
    assert first_window_at_case(records, 3) == 0
    assert first_window_at_case(records, 4) == 1
    assert first_window_at_case(records, 9) == 2
    with pytest.raises(ValueError):
        first_window_at_case(records, 10)


# --- drift statistics ----------------------------------------------------------


def test_drift_adaptation_stats_hand_example():
    # 2 before, 4 after: span [4, 4, 8, 8, 6, 6]
    sizes = [4, 4, 8, 8, 6, 6]
    rep = drift_adaptation_stats(sizes, drift_window=2, before=2, after=4)
    assert rep.pre_mean == 4.0
    assert rep.during_mean == 8.0
    assert rep.post_mean == 6.0
    # relative changes: 0, 1, 0, 1/4, 0
    assert math.isclose(rep.mean_relative_change, (1 + 0.25) / 5)
    mean = 36 / 6
    var = sum((s - mean) ** 2 for s in sizes) / 6
    assert math.isclose(rep.coefficient_of_variation, math.sqrt(var) / mean)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"drift_window": 1, "before": 2, "after": 2},   # not enough before
        {"drift_window": 3, "before": 1, "after": 4},   # not enough after
        {"drift_window": 2, "before": 0, "after": 4},
        {"drift_window": 2, "before": 1, "after": 1},
    ],
)
def test_drift_adaptation_stats_validates_span(kwargs):
    with pytest.raises(ValueError):
        drift_adaptation_stats([5, 5, 5, 5, 5, 5], **kwargs)


# --- accuracy proxy -------------------------------------------------------------


def test_df_pairs_are_per_case():
    events = [
        Event("a", "X", 1),
        Event("b", "P", 2),
        Event("a", "Y", 3),
        Event("b", "Q", 4),
    ]
    assert df_pairs(events) == {("X", "Y"), ("P", "Q")}


def test_pool_reference_pairs():
    pool = make_pool("ABC", "ACB")
    assert pool_reference_pairs(pool) == {
        ("A", "B"),
        ("B", "C"),
        ("A", "C"),
        ("C", "B"),
    }


def test_dfg_accuracy_counts():
    acc = dfg_accuracy({("A", "B"), ("X", "Y")}, {("A", "B"), ("B", "C")})
    assert acc.precision == 0.5
    assert acc.recall == 0.5
    assert acc.f1 == 0.5


def test_dfg_accuracy_empty_window_is_zero_precision():
    acc = dfg_accuracy(set(), {("A", "B")})
    assert acc == DfgAccuracy(0.0, 0.0, 0.0)


def test_dfg_accuracy_empty_reference_is_an_error():
    with pytest.raises(ValueError):
        dfg_accuracy({("A", "B")}, set())


def test_majority_pool_counts_events_and_breaks_ties_low():
    pool_per_case = [0, 1]
    assert majority_pool(record_for(["c0", "c0", "c1"]), pool_per_case) == 0
    assert majority_pool(record_for(["c1", "c1", "c0"]), pool_per_case) == 1
    # exact tie: the smaller pool index wins
    assert majority_pool(record_for(["c0", "c1"]), pool_per_case) == 0


def test_summarize_accuracy_scores_each_run():
    spec = builtin_scenario("sudden")
    events, ann = generate(spec)
    events = events[:600]
    for name, count in (("count5", 5), ("count50", 50)):
        records = run_stream(events, count_strategy(count))
        s = summarize_accuracy(name, records, ann.pool_per_case, spec.pools)
        assert s.strategy == name
        assert s.windows == len(records) > 0
        assert 0.0 <= s.mean_f1 <= 1.0


def test_summarize_accuracy_needs_a_window():
    spec = builtin_scenario("sudden")
    _, ann = generate(spec)
    with pytest.raises(ValueError, match="no windows to score"):
        summarize_accuracy("none", [], ann.pool_per_case, spec.pools)


# --- speed ------------------------------------------------------------------


def test_linear_fit_r2_exact_line():
    assert linear_fit_r2([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)


def test_linear_fit_r2_flat_line():
    assert linear_fit_r2([1, 2, 3], [5, 5, 5]) == 1.0


def test_linear_fit_r2_scatter_is_low():
    assert linear_fit_r2([1, 2, 3, 4], [10, -3, 8, 0]) < 0.5


@pytest.mark.parametrize("xs, ys", [([], []), ([3], [1.0]), ([3, 3], [1.0, 2.0])])
def test_linear_fit_r2_needs_two_distinct_x(xs, ys):
    with pytest.raises(ValueError):
        linear_fit_r2(xs, ys)


@pytest.mark.parametrize("sizes, trials", [([10], 0), ([], 3)])
def test_measure_latency_rejects_no_trials_or_sizes(sizes, trials):
    with pytest.raises(ValueError):
        measure_latency(sizes, trials=trials)


def test_measure_latency_shape():
    rows = measure_latency([10, 20], trials=3)
    assert [r.window_size for r in rows] == [10, 20]
    for row in rows:
        assert row.median_seconds > 0
        assert row.p95_seconds >= row.median_seconds
        assert 0 < row.min_seconds <= row.median_seconds


def test_statistics_match_the_numpy_formulas():
    """The stdlib statistics agree with the numpy code they replaced.

    Each value must be within a relative 1e-12 of numpy's, where "relative"
    is to the larger of the two values and the magnitude of the input: a
    spread of exactly zero comes out of numpy as rounding noise in the
    mean, which no relative bound on the result alone would admit.
    """
    np = pytest.importorskip("numpy")

    def close(ours, ref, scale=1.0):
        return abs(ours - ref) <= 1e-12 * max(abs(ours), abs(ref), scale)

    def numpy_r2(xs, ys):
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        slope, intercept = np.polyfit(x, y, 1)
        residual = y - (slope * x + intercept)
        total = y - np.mean(y)
        ss_tot = float(np.dot(total, total))
        ss_res = float(np.dot(residual, residual))
        if ss_tot == 0.0:
            return 1.0 if ss_res <= 1e-12 * max(1.0, float(np.dot(y, y))) else 0.0
        return 1.0 - ss_res / ss_tot

    @settings(max_examples=300, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 1000), min_size=3, max_size=60),
        xs=st.lists(st.integers(1, 1000), min_size=2, max_size=12, unique=True),
        slope=st.integers(0, 5),
        noise=st.lists(st.integers(-500, 500), min_size=12, max_size=12),
        unit=st.floats(1e-7, 1e-3),
        times=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=30),
    )
    def check(sizes, xs, slope, noise, unit, times):
        before = len(sizes) // 3 or 1
        after = len(sizes) - before
        rep = drift_adaptation_stats(sizes, before, before=before, after=after)
        span = np.asarray(sizes, dtype=float)
        rel = np.abs(np.diff(span)) / span[:-1]
        half = after // 2
        expected = (
            np.mean(rel),
            np.std(rel),
            np.std(span) / np.mean(span),
            np.mean(span[:before]),
            np.mean(span[before:][:half]),
            np.mean(span[before:][half:]),
        )
        got = (
            rep.mean_relative_change,
            rep.std_relative_change,
            rep.coefficient_of_variation,
            rep.pre_mean,
            rep.during_mean,
            rep.post_mean,
        )
        for ours, ref in zip(got, expected):
            assert close(ours, float(ref), max(np.max(rel), 1.0))

        # latency-like samples: a line in x plus bounded noise, in seconds
        ys = [(slope * x + e) * unit for x, e in zip(xs, noise)]
        assert close(linear_fit_r2(xs, ys), numpy_r2(xs, ys))

        row = LatencyRow.from_samples(7, times)
        assert close(row.median_seconds, float(np.median(times)))
        assert close(row.p95_seconds, float(np.percentile(times, 95)))

    check()
