"""Metamorphic relations of the whole windowing pipeline.

Each relation changes the input stream in a way that must leave the
windows as they were: a one-to-one renaming of activities or of case ids,
a constant added to every timestamp, and, under activity 1-grams, any
reassignment of events to cases.  Every run goes through
``bench.run_stream``, for the adaptive window and for count_tumbling, and
compares per window
``(size, coverage, completeness, chao1, threshold, force_closed)``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from coverwin.baselines import BaselineConfig, BaselineWindow
from coverwin.bench import run_stream
from coverwin.views import Event, SpeciesView, ViewConfig
from coverwin.window import AdaptiveWindow, ThresholdState

ACTIVITIES = "ABCDEF"
CASES = ("c1", "c2", "c3", "c4", "c5")
STRATEGIES = ("adaptive", "count_tumbling")
VIEWS = (
    ("activity_ngram", 1),
    ("activity_ngram", 2),
    ("directly_follows", 2),
    ("trace_variant", 1),
)
# short enough that some cases of a drawn stream go idle and are evicted
CASE_TIMEOUT = 2000


@st.composite
def streams(draw) -> list[Event]:
    """Ordered streams with many equal timestamps; some start at timestamp 0."""
    start = draw(st.one_of(st.just(0), st.integers(0, 2**41)))
    # a drawn length, as lists drawn without one are mostly a few items long
    size = draw(st.integers(0, 120))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(CASES),
                st.sampled_from(ACTIVITIES),
                st.one_of(st.just(0), st.integers(0, 1500)),
            ),
            min_size=size,
            max_size=size,
        )
    )
    events, ts = [], start
    for case_id, activity, gap in steps:
        ts += gap
        events.append(Event(case_id, activity, ts))
    return events


def run(events: list[Event], strategy: str, view: tuple[str, int]):
    kind, order = view
    species = SpeciesView(ViewConfig(kind, order, CASE_TIMEOUT))
    if strategy == "adaptive":
        windower = AdaptiveWindow(species, ThresholdState(), min_window_size=5)
    else:
        windower = BaselineWindow(species, BaselineConfig(strategy, count=7))
    return run_stream(events, windower)


def window_stats(records) -> list[tuple]:
    return [
        (r.size, r.coverage, r.completeness, r.chao1, r.threshold, r.force_closed)
        for r in records
    ]


def runs(events: list[Event], views=VIEWS) -> dict[tuple, list]:
    """The records of every strategy under every view in ``views``."""
    return {(s, v): run(events, s, v) for s in STRATEGIES for v in views}


def stats_of(events: list[Event], views=VIEWS) -> dict[tuple, list[tuple]]:
    return {key: window_stats(records) for key, records in runs(events, views).items()}


@settings(max_examples=15, deadline=None)
@given(
    stream=streams(),
    # the six names of one or two letters x and y, whose concatenations collide
    names=st.lists(
        st.text("xy", min_size=1, max_size=2),
        min_size=len(ACTIVITIES),
        max_size=len(ACTIVITIES),
        unique=True,
    ),
)
def test_renaming_activities_one_to_one_keeps_the_windows(stream, names):
    rename = dict(zip(ACTIVITIES, names))
    renamed = [Event(e.case_id, rename[e.activity], e.timestamp) for e in stream]
    assert stats_of(renamed) == stats_of(stream)


@settings(max_examples=15, deadline=None)
@given(
    stream=streams(),
    # a shuffle of the same ids, or new ids of which some share a first
    # letter or differ only in letter case
    names=st.one_of(
        st.permutations(CASES),
        st.lists(
            st.text("cxX1", min_size=1, max_size=3),
            min_size=len(CASES),
            max_size=len(CASES),
            unique=True,
        ),
    ),
)
def test_renaming_case_ids_one_to_one_keeps_the_windows(stream, names):
    rename = dict(zip(CASES, names))
    renamed = [Event(rename[e.case_id], e.activity, e.timestamp) for e in stream]
    assert stats_of(renamed) == stats_of(stream)


@settings(max_examples=15, deadline=None)
@given(stream=streams(), shift=st.integers(1, 2**41))
def test_shifting_every_timestamp_shifts_only_first_and_last_ts(stream, shift):
    # from a start at 0, where a view that takes a zero timestamp for "no
    # time" goes wrong, to a start far from it
    start = stream[0].timestamp if stream else 0
    base = [Event(e.case_id, e.activity, e.timestamp - start) for e in stream]
    shifted = [Event(e.case_id, e.activity, e.timestamp + shift) for e in base]
    before, after = runs(base), runs(shifted)
    for key, records in before.items():
        assert window_stats(after[key]) == window_stats(records), key
        assert [(r.first_ts, r.last_ts) for r in after[key]] == [
            (r.first_ts + shift, r.last_ts + shift) for r in records
        ], key


@settings(max_examples=15, deadline=None)
@given(stream=streams(), data=st.data())
def test_activity_unigrams_ignore_which_case_an_event_is_in(stream, data):
    cases = data.draw(
        st.lists(st.sampled_from(CASES), min_size=len(stream), max_size=len(stream))
    )
    moved = [Event(c, e.activity, e.timestamp) for c, e in zip(cases, stream)]
    unigrams = (("activity_ngram", 1),)
    assert stats_of(moved, unigrams) == stats_of(stream, unigrams)
