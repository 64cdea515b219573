"""Fixed-rule windowing: boundary semantics and record parity."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from coverwin import BaselineConfig, BaselineWindow, Event, SpeciesView, ViewConfig
from coverwin.baselines import BASELINE_KINDS, COUNT_TUMBLING, LANDMARK, TIME_TUMBLING

from conftest import make_events


def new_window(kind, **kwargs):
    return BaselineWindow(
        SpeciesView(ViewConfig("activity_ngram")), BaselineConfig(kind, **kwargs)
    )


def run(window, events):
    records = []
    for ev in events:
        rec = window.process_event(ev)
        if rec is not None:
            records.append(rec)
    return records


def test_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig("nope")
    with pytest.raises(ValueError):
        BaselineConfig(COUNT_TUMBLING, count=0)
    with pytest.raises(ValueError):
        BaselineConfig(TIME_TUMBLING, duration=0)
    with pytest.raises(ValueError):
        BaselineConfig(LANDMARK, landmark_activity="")


def test_count_window_closes_on_nth_event():
    win = new_window(COUNT_TUMBLING, count=3)
    events = make_events("ABCDEFG")
    records = run(win, events)
    assert [r.size for r in records] == [3, 3]
    assert records[0].events == tuple(events[:3])
    assert records[1].events == tuple(events[3:6])
    assert win.flush().events == (events[6],)


def test_count_window_indices_increment():
    win = new_window(COUNT_TUMBLING, count=2)
    records = run(win, make_events("ABCD"))
    assert [r.index for r in records] == [0, 1]


def test_time_window_trigger_event_opens_next():
    # duration 3000 with one event per second: the event 3000ms past the
    # window start closes the old window and lands in the new one
    win = new_window(TIME_TUMBLING, duration=3000)
    events = make_events("ABCDEFG")  # ts 1000..7000
    records = run(win, events)
    assert [r.size for r in records] == [3, 3]
    assert records[0].events == tuple(events[:3])
    assert records[0].last_ts == 3000
    assert records[1].first_ts == 4000


def test_time_window_exact_boundary_closes():
    win = new_window(TIME_TUMBLING, duration=1000)
    events = make_events("AB")  # gap exactly 1000
    records = run(win, events)
    assert len(records) == 1
    assert records[0].size == 1


def test_landmark_event_starts_new_window():
    win = new_window(LANDMARK, landmark_activity="A")
    events = make_events("ABCABC")
    records = run(win, events)
    # first A opens the stream, later A closes before ingesting
    assert [r.size for r in records] == [3]
    assert records[0].events == tuple(events[:3])
    final = win.flush()
    assert final.events == tuple(events[3:])
    assert final.force_closed


def test_landmark_belongs_to_next_window():
    win = new_window(LANDMARK, landmark_activity="X")
    events = make_events("ABXC")
    records = run(win, events)
    assert records[0].events == tuple(events[:2])
    final = win.flush()
    assert [ev.activity for ev in final.events] == ["X", "C"]


def test_flush_empty_returns_none():
    win = new_window(COUNT_TUMBLING, count=2)
    assert win.flush() is None


def test_records_carry_estimates_and_zero_threshold():
    win = new_window(COUNT_TUMBLING, count=4)
    records = run(win, make_events("AABB"))
    rec = records[0]
    assert rec.threshold == 0.0
    assert rec.coverage == 1.0  # no singletons
    assert rec.chao1 == 2.0


def test_partition_is_lossless():
    win = new_window(TIME_TUMBLING, duration=2500)
    events = make_events("ABCDEFGHIJ")
    records = run(win, events)
    final = win.flush()
    rebuilt = [ev for rec in records for ev in rec.events]
    rebuilt.extend(final.events if final else ())
    assert rebuilt == events


def reference_windows(events, config):
    """(size, force_closed) of each window, split straight from the event list."""
    if config.kind == COUNT_TUMBLING:
        starts = range(0, len(events), config.count)
        chunks = [events[i : i + config.count] for i in starts]
        return [(len(chunk), len(chunk) < config.count) for chunk in chunks]
    firsts = []
    for i, ev in enumerate(events):
        if not firsts or (
            ev.timestamp - events[firsts[-1]].timestamp >= config.duration
            if config.kind == TIME_TUMBLING
            else ev.activity == config.landmark_activity
        ):
            firsts.append(i)
    ends = firsts[1:] + [len(events)]
    return [(end - first, end == len(events)) for first, end in zip(firsts, ends)]


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from("ABCD"), st.integers(0, 3000)), max_size=80
    ),
    kind=st.sampled_from(BASELINE_KINDS),
    count=st.integers(1, 30),
    duration=st.integers(1, 5000),
    landmark=st.sampled_from("ABCD"),
)
def test_boundaries_match_a_direct_split_of_the_stream(
    steps, kind, count, duration, landmark
):
    """Every kind, at any parameters, cuts an ordered stream where a plain
    split of the event list does, and only the flushed window is forced."""
    stamps = itertools.accumulate(gap for _, gap in steps)
    events = [Event("c1", act, ts) for (act, _), ts in zip(steps, stamps)]
    config = BaselineConfig(kind, count, duration, landmark)
    win = BaselineWindow(SpeciesView(ViewConfig("activity_ngram")), config)
    records = [r for r in (*run(win, events), win.flush()) if r is not None]
    assert [(r.size, r.force_closed) for r in records] == reference_windows(
        events, config
    )
