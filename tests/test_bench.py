"""Benchmark helpers: drift statistics, accuracy proxy, speed probes."""

from __future__ import annotations

import math

import pytest

from coverwin import (
    AdaptiveWindow,
    BaselineConfig,
    BaselineWindow,
    Event,
    SourceConfig,
    SpeciesView,
    ViewConfig,
)
from coverwin.bench import (
    DfgAccuracy,
    WindowSizeSeries,
    accuracy_by_strategy,
    df_pairs,
    dfg_accuracy,
    drift_adaptation_stats,
    first_window_at_case,
    linear_fit_r2,
    majority_pool,
    measure_latency,
    measure_throughput,
    pool_reference_pairs,
    run_stream,
    segment_means,
    size_series,
    window_sizes,
)
from coverwin.driftgen import builtin_scenario, generate, make_pool
from coverwin.stream_io import FILE_JSONL, write_events_jsonl
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
    assert window_sizes(records) == [2, 2, 1]
    assert records[-1].force_closed


def test_run_stream_no_tail_when_exact():
    records = run_stream(make_events("ABCD"), count_strategy(2))
    assert window_sizes(records) == [2, 2]
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


def test_size_series_maps_drift_to_window():
    events = [Event(f"c{i}", "A", 1000 + i) for i in range(10)]
    records = run_stream(events, count_strategy(4))
    series = size_series(records, drift_case_indices=(5,))
    assert series.sizes == (4, 4, 2)
    assert series.drift_markers == (1,)


def test_window_size_series_rejects_empty_windows():
    with pytest.raises(ValueError):
        WindowSizeSeries(sizes=(3, 0, 2))


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


def test_drift_adaptation_stats_accepts_series():
    series = WindowSizeSeries(sizes=(4, 4, 8, 8, 6, 6), drift_markers=(2,))
    rep = drift_adaptation_stats(series, series.drift_markers[0], before=2, after=4)
    assert rep.drift_window == 2


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


def test_segment_means():
    pre, during, post = segment_means([2, 2, 4, 4, 6, 6], 2, 4)
    assert (pre, during, post) == (2.0, 4.0, 6.0)
    with pytest.raises(ValueError):
        segment_means([1, 2, 3], 0, 2)
    with pytest.raises(ValueError):
        segment_means([1, 2, 3], 2, 2)


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


def test_accuracy_by_strategy_runs_all_factories():
    spec = builtin_scenario("sudden")
    events, ann = generate(spec)
    events = events[:600]
    summaries = accuracy_by_strategy(
        events,
        ann.pool_per_case,
        spec.pools,
        {
            "count5": lambda: count_strategy(5),
            "count50": lambda: count_strategy(50),
        },
    )
    assert [s.name for s in summaries] == ["count5", "count50"]
    for s in summaries:
        assert s.windows > 0
        assert 0.0 <= s.mean_f1 <= 1.0


# --- speed ------------------------------------------------------------------


def test_linear_fit_r2_exact_line():
    assert linear_fit_r2([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)


def test_linear_fit_r2_flat_line():
    assert linear_fit_r2([1, 2, 3], [5, 5, 5]) == 1.0


def test_linear_fit_r2_scatter_is_low():
    assert linear_fit_r2([1, 2, 3, 4], [10, -3, 8, 0]) < 0.5


def test_measure_latency_shape():
    rows = measure_latency([10, 20], trials=3)
    assert [r.window_size for r in rows] == [10, 20]
    for row in rows:
        assert row.median_seconds > 0
        assert row.p95_seconds >= row.median_seconds
        assert 0 < row.min_seconds <= row.median_seconds


def test_measure_throughput(tmp_path):
    events, _ = generate(builtin_scenario("steady3"))
    path = str(tmp_path / "ev.jsonl")
    write_events_jsonl(events, path)
    report = measure_throughput(
        SourceConfig(FILE_JSONL, path),
        lambda: AdaptiveWindow(SpeciesView(ViewConfig())),
        runs=2,
    )
    assert report.events == len(events)
    assert len(report.runs) == 2
    assert report.mean > 0
    assert report.std >= 0
    with pytest.raises(ValueError):
        measure_throughput(SourceConfig(FILE_JSONL, path), lambda: None, runs=0)
