"""Species extraction views: emission rules, case lifecycle, eviction."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from coverwin import AdaptiveWindow, Event, SpeciesView, ViewConfig
from coverwin.views import (
    ACTIVITY_NGRAM,
    DIRECTLY_FOLLOWS,
    MAX_NGRAM_ORDER,
    TRACE_VARIANT,
    VIEW_KINDS,
)

from conftest import make_events


def collect(view, events):
    out = []
    for ev in events:
        out.extend(view.extract(ev))
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        ViewConfig(kind="nope")
    with pytest.raises(ValueError):
        ViewConfig(ngram_order=0)
    with pytest.raises(ValueError):
        ViewConfig(ngram_order=MAX_NGRAM_ORDER + 1)
    with pytest.raises(ValueError):
        ViewConfig(case_timeout=0)


def test_unigram_emits_every_event():
    view = SpeciesView(ViewConfig(ACTIVITY_NGRAM, ngram_order=1))
    assert collect(view, make_events("ABC")) == ["A", "B", "C"]


def test_bigram_needs_two_events_per_case():
    view = SpeciesView(ViewConfig(ACTIVITY_NGRAM, ngram_order=2))
    events = make_events("ABC")
    assert view.extract(events[0]) == []
    assert view.extract(events[1]) == ["A|B"]
    assert view.extract(events[2]) == ["B|C"]


def test_trigram_window_slides():
    view = SpeciesView(ViewConfig(ACTIVITY_NGRAM, ngram_order=3))
    assert collect(view, make_events("ABCD")) == ["A|B|C", "B|C|D"]


def test_ngram_context_is_per_case():
    view = SpeciesView(ViewConfig(ACTIVITY_NGRAM, ngram_order=2))
    a = make_events("AB", case_id="a", start=1000)
    b = make_events("XY", case_id="b", start=1500)
    # interleave the two cases
    order = [a[0], b[0], a[1], b[1]]
    assert collect(view, order) == ["A|B", "X|Y"]


def test_directly_follows_pairs():
    view = SpeciesView(ViewConfig(DIRECTLY_FOLLOWS))
    assert collect(view, make_events("ABAC")) == ["A|B", "B|A", "A|C"]


def test_directly_follows_ignores_other_cases():
    view = SpeciesView(ViewConfig(DIRECTLY_FOLLOWS))
    a = make_events("AB", case_id="a")
    b = make_events("Z", case_id="b", start=1500)
    assert collect(view, [a[0], b[0], a[1]]) == ["A|B"]


def test_trace_variant_emits_only_on_flush():
    view = SpeciesView(ViewConfig(TRACE_VARIANT))
    events = make_events("ABC", case_id="a") + make_events("XY", case_id="b")
    assert collect(view, events) == []
    variants = view.flush_cases(None)
    assert sorted(variants) == ["A|B|C", "X|Y"]
    assert view.open_cases == 0


def test_trace_variant_keeps_full_history():
    view = SpeciesView(ViewConfig(TRACE_VARIANT))
    collect(view, make_events("ABCDEFGH"))
    assert view.flush_cases(None) == ["A|B|C|D|E|F|G|H"]


def test_timeout_evicts_only_idle_cases():
    cfg = ViewConfig(TRACE_VARIANT, case_timeout=1000)
    view = SpeciesView(cfg)
    view.extract(Event("old", "A", 1000))
    # old is idle (1000 + 1000 < 2500), new is not: the event that shows
    # old idle hands over its variant
    assert view.extract(Event("new", "B", 2500)) == ["A"]
    assert view.open_cases == 1


def test_a_case_revisited_after_its_timeout_keeps_its_history():
    # extract touches the event's case before it scans for idle cases, so
    # a, idle at 2600 before its event, is refreshed; only b completes
    view = SpeciesView(ViewConfig(TRACE_VARIANT, case_timeout=1000))
    assert view.extract(Event("a", "A", 1000)) == []
    assert view.extract(Event("b", "B", 1500)) == []
    assert view.extract(Event("a", "C", 2600)) == ["B"]
    assert view.flush_cases(None) == ["A|C"]


def test_timeout_boundary_is_exclusive():
    cfg = ViewConfig(TRACE_VARIANT, case_timeout=1000)
    view = SpeciesView(cfg)
    view.extract(Event("a", "A", 1000))
    # exactly timeout ms idle: still alive
    assert view.flush_cases(2000) == []
    assert view.flush_cases(2001) == ["A"]


def test_eviction_drops_ngram_context():
    cfg = ViewConfig(DIRECTLY_FOLLOWS, case_timeout=1000)
    view = SpeciesView(cfg)
    assert view.extract(Event("a", "A", 1000)) == []
    assert view.flush_cases(5000) == []
    # context was evicted, so the pair A|B never forms
    assert view.extract(Event("a", "B", 5000)) == []
    assert view.extract(Event("a", "C", 5100)) == ["B|C"]


def test_touch_refreshes_recency_order():
    cfg = ViewConfig(TRACE_VARIANT, case_timeout=1000)
    view = SpeciesView(cfg)
    view.extract(Event("a", "A", 1000))
    view.extract(Event("b", "B", 1100))
    view.extract(Event("a", "C", 1900))
    # b is now the oldest; only it times out
    assert view.flush_cases(2500) == ["B"]
    assert view.open_cases == 1


def test_event_is_immutable():
    ev = Event("c", "A", 1)
    with pytest.raises(AttributeError):
        ev.activity = "B"


def test_event_keeps_its_dataclass_contract():
    # Event has a hand-written __init__; everything else is the dataclass's
    ev = Event("c", "A", 1)
    assert ev == Event(case_id="c", activity="A", timestamp=1)
    assert hash(ev) == hash(Event("c", "A", 1))
    assert ev != Event("c", "A", 2)
    assert ev != ("c", "A", 1)
    assert repr(ev) == "Event(case_id='c', activity='A', timestamp=1)"
    assert dataclasses.is_dataclass(ev)
    assert not hasattr(ev, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        ev.case_id = "d"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del ev.timestamp
    assert [f.name for f in dataclasses.fields(Event)] == [
        "case_id",
        "activity",
        "timestamp",
    ]
    assert dataclasses.asdict(ev) == {"case_id": "c", "activity": "A", "timestamp": 1}
    assert dataclasses.replace(ev, timestamp=5) == Event("c", "A", 5)
    for clone in (
        pickle.loads(pickle.dumps(ev)),
        copy.copy(ev),
        copy.deepcopy(ev),
    ):
        assert clone == ev and type(clone) is Event
    with pytest.raises(TypeError):
        Event("c", "A")
    with pytest.raises(TypeError):
        Event("c", "A", 1, 2)
    with pytest.raises(TypeError):
        Event("c", "A", 1, extra=2)


class UnguardedView:
    """Reference view: a plain dict of every case, scanned in full at every
    event.  A 1-gram needs no case context, so it keeps no case."""

    def __init__(self, config: ViewConfig) -> None:
        self.config = config
        self.order = {ACTIVITY_NGRAM: config.ngram_order, DIRECTLY_FOLLOWS: 2}.get(
            config.kind
        )
        self.cases: dict[str, tuple[int, list[str]]] = {}

    def extract(self, event: Event) -> list[str]:
        if self.order == 1:
            return [event.activity]
        _, activities = self.cases.pop(event.case_id, (0, []))
        activities.append(event.activity)
        self.cases[event.case_id] = (event.timestamp, activities)
        own = []
        if self.order is not None and len(activities) >= self.order:
            own = ["|".join(activities[-self.order :])]
        return own + self.flush_cases(event.timestamp)

    def flush_cases(self, now: int | None) -> list[str]:
        timeout = self.config.case_timeout
        idle = [
            case
            for case, (last_seen, _) in self.cases.items()
            if now is None or last_seen + timeout < now
        ]
        variants = ["|".join(self.cases.pop(case)[1]) for case in idle]
        return variants if self.config.kind == TRACE_VARIANT else []


# a non-decreasing stream: events (case, activity) and bare flush_cases(now)
# calls (None), each a step of 0..40 ms after the one before
stream_ops = st.lists(
    st.tuples(
        st.integers(0, 40),
        st.one_of(
            st.none(), st.tuples(st.sampled_from("abcd"), st.sampled_from("ABC"))
        ),
    ),
    max_size=60,
)


def drive(views, start, ops):
    """Feed ops to every view, an event to extract as Windower does and a
    bare step to flush_cases(now); yields each step's results."""
    now = start
    for step, op in ops:
        now += step
        if op is None:
            yield [v.flush_cases(now) for v in views]
        else:
            event = Event(op[0], op[1], now)
            yield [v.extract(event) for v in views]
    yield [v.flush_cases(None) for v in views]


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(VIEW_KINDS),
    order=st.integers(1, MAX_NGRAM_ORDER),
    timeout=st.integers(1, 60),
    start=st.integers(-(10**6), 10**6),
    ops=stream_ops,
)
def test_guarded_flush_matches_a_full_scan(kind, order, timeout, start, ops):
    config = ViewConfig(kind, ngram_order=order, case_timeout=timeout)
    view, reference = SpeciesView(config), UnguardedView(config)
    for got, expected in drive([view, reference], start, ops):
        assert got == expected
        assert view.open_cases == len(reference.cases)
    assert view.open_cases == 0


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(VIEW_KINDS),
    timeout=st.integers(1, 60),
    start=st.integers(-(10**6), 10**6),
    ops=stream_ops,
)
def test_no_case_is_idle_at_or_before_the_idle_bound(kind, timeout, start, ops):
    # extract skips its idle-case scan while its event's time is not past
    # idle_after; the bound is checked at each step before the event
    config = ViewConfig(kind, case_timeout=timeout)
    view, reference = SpeciesView(config), UnguardedView(config)
    now = start
    for step, op in ops:
        now += step
        if now <= view.idle_after:
            assert all(seen + timeout >= now for seen, _ in reference.cases.values())
        if op is not None:
            event = Event(op[0], op[1], now)
            assert view.extract(event) == reference.extract(event)


@settings(max_examples=100, deadline=None)
@given(timeout=st.integers(1, 60), start=st.integers(-(10**6), 10**6), ops=stream_ops)
def test_a_unigram_view_keeps_no_case(timeout, start, ops):
    """A 1-gram has no case context: no case is kept, none can go idle, so
    a windower scans for idle cases only once, when the stream ends."""
    calls = []
    flush_cases = SpeciesView.flush_cases

    def counting_flush_cases(view, now=None):
        calls.append(now)
        return flush_cases(view, now)

    view = SpeciesView(ViewConfig(ACTIVITY_NGRAM, ngram_order=1, case_timeout=timeout))
    windower = AdaptiveWindow(view, min_window_size=1)
    events, now = [], start
    for step, op in ops:
        now += step
        if op is not None:
            events.append(Event(*op, now))
    with pytest.MonkeyPatch.context() as patch:
        # patched on the class, as the benchmark's span tracer patches it
        patch.setattr(SpeciesView, "flush_cases", counting_flush_cases)
        for event in events:
            windower.process_event(event)
            assert view.open_cases == 0 and view.idle_after == float("inf")
        assert calls == []
        windower.flush()
    assert calls == [None]
    assert view.open_cases == 0 and view.idle_after == float("inf")


@settings(max_examples=100, deadline=None)
@given(timeout=st.integers(1, 60), start=st.integers(0, 10**6), ops=stream_ops)
def test_directly_follows_is_the_activity_bigram(timeout, start, ops):
    pairs = SpeciesView(ViewConfig(DIRECTLY_FOLLOWS, case_timeout=timeout))
    bigrams = SpeciesView(
        ViewConfig(ACTIVITY_NGRAM, ngram_order=2, case_timeout=timeout)
    )
    for got, expected in drive([pairs, bigrams], start, ops):
        assert got == expected
