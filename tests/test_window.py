"""Adaptive threshold updates and window close behavior.

The incremental threshold maintenance inside AdaptiveWindow is checked
against the pure full-scan ``update_threshold`` of conftest by running
both side by side over the same streams.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from coverwin import (
    AbundanceStats,
    AdaptiveWindow,
    BaselineConfig,
    BaselineWindow,
    Event,
    SpeciesView,
    ThresholdState,
    ViewConfig,
    WindowRecord,
    estimates,
    generate,
)
from coverwin.baselines import COUNT_TUMBLING, LANDMARK, TIME_TUMBLING
from coverwin.bench import run_stream
from coverwin.driftgen import builtin_scenario
from coverwin.stream_io import window_record_to_json
from coverwin.views import ACTIVITY_NGRAM, DIRECTLY_FOLLOWS, TRACE_VARIANT
from coverwin.window import (
    CT_CEILING,
    SF_CEILING,
    SF_DECAY,
    SF_FLOOR,
    SF_GROWTH,
    Windower,
    _next_threshold,
)

from conftest import (
    FloorOnlyWindow,
    adaptive_run,
    batch_reference_run,
    make_events,
    parse_window_record,
    rotating_case_events,
    update_threshold,
)


# --- threshold state ---------------------------------------------------------


def test_threshold_defaults():
    s = ThresholdState()
    assert (s.ct, s.sf, s.dr, s.mt, s.delta, s.w) == (0.9, 0.2, 0.1, 0.5, 0.01, 5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ct": 1.5},
        {"ct": 0.4, "mt": 0.5},
        {"mt": 0.0},
        {"sf": 0.0},
        {"sf": 1.0},
        {"dr": 0.0},
        {"delta": 0.0},
        {"w": 1},
        {"dr": math.nan},
        {"delta": math.nan},
    ],
)
def test_threshold_validation(kwargs):
    with pytest.raises(ValueError):
        ThresholdState(**kwargs)


def test_update_needs_three_points():
    with pytest.raises(ValueError):
        update_threshold([0.5, 0.6], ThresholdState())


def test_hand_trace_stagnant_flat_curve():
    # five identical points: stagnation path with a flat curvature
    state = update_threshold([0.8] * 5, ThresholdState())
    assert math.isclose(state.sf, 0.24, abs_tol=1e-12)
    assert math.isclose(state.ct, 0.8, abs_tol=1e-12)


def test_hand_trace_active_curve():
    state0 = ThresholdState(ct=0.85, sf=0.2)
    state = update_threshold([0.2, 0.5, 0.9, 0.95], state0)
    assert math.isclose(state.sf, 0.16, abs_tol=1e-12)
    assert math.isclose(state.ct, 0.858, abs_tol=1e-12)


def test_elbow_tie_goes_to_earliest_index():
    # dyadic values make both curvatures exactly zero; the earlier
    # interior point must win the tie
    history = [0.125, 0.25, 0.375, 0.5]
    state = update_threshold(history, ThresholdState(ct=0.9, sf=0.5))
    # c_optimal = history[1 + 1] = 0.375, non-stagnant: sf -> 0.4
    assert math.isclose(state.sf, 0.4, abs_tol=1e-12)
    assert math.isclose(state.ct, 0.4 * 0.375 + 0.6 * 0.9, abs_tol=1e-12)


def test_threshold_never_leaves_bounds():
    rng = random.Random(7)
    for _ in range(2000):
        mt = rng.uniform(0.05, 0.9)
        state = ThresholdState(
            ct=rng.uniform(mt, CT_CEILING),
            sf=rng.uniform(SF_FLOOR, SF_CEILING),
            dr=rng.uniform(0.01, 0.5),
            mt=mt,
            delta=rng.uniform(1e-4, 0.1),
            w=rng.randint(2, 8),
        )
        history = [rng.random() for _ in range(rng.randint(3, 40))]
        out = update_threshold(history, state)
        assert state.mt <= out.ct <= CT_CEILING
        assert SF_FLOOR <= out.sf <= SF_CEILING


def test_stagnation_decays_threshold_toward_floor():
    state = ThresholdState(ct=0.9, sf=0.2, dr=0.1, mt=0.5)
    history = [0.5, 0.5, 0.5, 0.5, 0.5]
    for _ in range(30):
        state = update_threshold(history, state)
    # flat low curve: ct is pulled to the floor and pinned there
    assert math.isclose(state.ct, 0.5, abs_tol=1e-9)


# --- clamps as comparisons -----------------------------------------------------
#
# The engine and the batch oracle share _next_threshold, so their agreement
# cannot catch a change in it; it is pinned to its min/max form instead.


def minmax_next_threshold(ct, sf, dr, mt, c_optimal, stagnant):
    if stagnant:
        sf = min(SF_GROWTH * sf, SF_CEILING)
        ct_temp = max(ct - dr, mt)
    else:
        sf = max(SF_DECAY * sf, SF_FLOOR)
        ct_temp = ct
    ct = sf * c_optimal + (1.0 - sf) * ct_temp
    return min(max(ct, mt), CT_CEILING), sf


def near(x, k=2):
    """``x`` and its ``k`` nearest floats on either side."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return sorted(set(below + above))


# sf inputs whose update lands just below, on and just above each sf clamp
SF_GROWTH_TIE = SF_CEILING / SF_GROWTH
SF_DECAY_TIE = SF_FLOOR / SF_DECAY
SF_EDGES = near(SF_GROWTH_TIE) + near(SF_DECAY_TIE)
MT_EDGES = [0.5, 0.25, SF_FLOOR, *near(CT_CEILING)]


def test_edge_inputs_straddle_every_sf_clamp():
    assert SF_GROWTH * SF_GROWTH_TIE == SF_CEILING
    assert SF_DECAY * SF_DECAY_TIE == SF_FLOOR
    for bound, factor in ((SF_CEILING, SF_GROWTH), (SF_FLOOR, SF_DECAY)):
        products = {factor * sf for sf in SF_EDGES}
        assert bound in products
        assert any(p < bound for p in products)
        assert any(p > bound for p in products)


@st.composite
def threshold_steps(draw):
    anything = st.floats()
    mt = draw(st.one_of(st.sampled_from(MT_EDGES), st.floats(1e-6, CT_CEILING)))
    dr = draw(st.one_of(st.sampled_from([0.1, 0.25]), st.floats(1e-6, 1.0)))
    # ct on and around the floor, the ceiling and the decay's landing on mt
    ct = draw(
        st.one_of(
            st.sampled_from(near(mt) + near(CT_CEILING) + near(mt + dr)),
            st.floats(0.0, 1.0),
            anything,
        )
    )
    sf = draw(
        st.one_of(
            st.sampled_from(SF_EDGES + [0.2, 0.5]),
            st.floats(SF_FLOOR, SF_CEILING),
            anything,
        )
    )
    # the blend lands exactly on a bound when both of its ends sit there
    c_optimal = draw(
        st.one_of(
            st.sampled_from([0.0, 1.0, mt, ct, *near(mt), *near(CT_CEILING)]),
            st.floats(0.0, 1.0),
            anything,
        )
    )
    return ct, sf, dr, mt, c_optimal, draw(st.booleans())


@settings(max_examples=500, deadline=None)
@given(threshold_steps())
@example((0.6, 0.2, 0.1, 0.5, 0.5, True))  # ct - dr ties mt
@example((0.5, 0.625, 0.1, 0.5, 0.5, False))  # blend ties mt
@example((CT_CEILING, 0.5, 0.1, 0.5, CT_CEILING, False))  # blend ties ceiling
@example((0.9, SF_GROWTH_TIE, 0.1, 0.5, 0.7, True))  # sf growth ties its ceiling
@example((0.9, SF_DECAY_TIE, 0.1, 0.5, 0.7, False))  # sf decay ties its floor
def test_next_threshold_matches_its_min_max_form(step):
    # repr tells -0.0 from 0.0 and matches NaN with NaN
    assert repr(_next_threshold(*step)) == repr(minmax_next_threshold(*step))


# --- incremental equivalence -------------------------------------------------


def random_events(seed, count, alphabet, cases):
    rng = random.Random(seed)
    ts = 0
    out = []
    for _ in range(count):
        ts += rng.randint(1, 50)
        out.append(
            Event(
                f"c{rng.randrange(cases)}",
                f"a{rng.randrange(alphabet)}",
                ts,
            )
        )
    return out


@pytest.mark.parametrize("kind", [ACTIVITY_NGRAM, DIRECTLY_FOLLOWS, TRACE_VARIANT])
@pytest.mark.parametrize("alphabet", [3, 12])
def test_incremental_threshold_matches_batch(kind, alphabet):
    config = ViewConfig(kind, ngram_order=1, case_timeout=500)
    events = random_events(seed=alphabet, count=1500, alphabet=alphabet, cases=8)
    state0 = ThresholdState()
    cts, closes, _ = batch_reference_run(events, config, state0, 5)
    assert adaptive_run(events, config, state0, 5) == (cts, closes)


@st.composite
def threshold_states(draw):
    mt = draw(st.floats(0.05, 0.95))
    return ThresholdState(
        ct=draw(st.floats(mt, CT_CEILING)),
        sf=draw(st.floats(SF_FLOOR, SF_CEILING)),
        dr=draw(st.floats(0.005, 0.5)),
        mt=mt,
        delta=draw(st.floats(1e-4, 0.2)),
        w=draw(st.integers(2, 9)),
    )


@settings(max_examples=300, deadline=None)
@given(
    state0=threshold_states(),
    min_size=st.integers(1, 12),
    seed=st.integers(0, 10_000),
    alphabet=st.integers(2, 10),
)
def test_incremental_matches_batch_for_any_threshold_parameters(
    state0, min_size, seed, alphabet
):
    events = random_events(seed=seed, count=150, alphabet=alphabet, cases=4)
    for kind in (ACTIVITY_NGRAM, DIRECTLY_FOLLOWS, TRACE_VARIANT):
        config = ViewConfig(kind, ngram_order=1, case_timeout=500)
        cts, closes, _ = batch_reference_run(events, config, state0, min_size)
        assert adaptive_run(events, config, state0, min_size) == (cts, closes)


# --- where the threshold acts --------------------------------------------------
#
# The floor-only rule closes at the first event with coverage >= mt and at
# least min_window_size events.  Under the defaults of `analyze` and of
# `bench compare` the adaptive rule closes at exactly those events on every
# small built-in scenario; the trace_variant setting is one where the
# adaptation moves boundaries.  A change to the close rule that moves a pin
# here should say so.

RULE_SETTINGS = (
    (ViewConfig(ACTIVITY_NGRAM), 0.5, 5),  # analyze
    (ViewConfig(DIRECTLY_FOLLOWS), 0.75, 5),  # bench compare
    (ViewConfig(TRACE_VARIANT, case_timeout=10_000), 0.5, 20),
)


# per scenario and setting: adaptive windows, floor-only windows, same boundaries
BOUNDARY_PINS = {
    "sudden": [(265, 265, True), (177, 177, True), (67, 71, False)],
    "gradual": [(596, 596, True), (389, 389, True), (153, 163, False)],
    "recurring": [(266, 266, True), (175, 175, True), (70, 72, False)],
    "incremental": [(344, 344, True), (310, 310, True), (125, 125, False)],
    "steady3": [(180, 180, True), (180, 180, True), (45, 45, True)],
    "steady5": [(215, 215, True), (200, 200, True), (75, 75, True)],
}


@pytest.mark.parametrize("scenario", BOUNDARY_PINS)
def test_adaptive_threshold_moves_boundaries_only_where_pinned(scenario):
    events, _ = generate(builtin_scenario(scenario))
    got = []
    for config, mt, min_size in RULE_SETTINGS:
        state0 = ThresholdState(mt=mt)
        adaptive = AdaptiveWindow(SpeciesView(config), state0, min_size)
        floor = FloorOnlyWindow(SpeciesView(config), mt, min_size)
        a = [r.size for r in run_stream(events, adaptive)]
        f = [r.size for r in run_stream(events, floor)]
        got.append((len(a), len(f), a == f))
    assert got == BOUNDARY_PINS[scenario]


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([ACTIVITY_NGRAM, DIRECTLY_FOLLOWS, TRACE_VARIANT]),
    ngram_order=st.integers(1, 3),
    case_timeout=st.integers(40, 20_000),
    mt=st.floats(0.05, 0.9),
    min_size=st.integers(1, 20),
    count=st.integers(1, 400),
    alphabet=st.integers(2, 12),
    cases=st.integers(1, 60),
    seed=st.integers(0, 10_000),
)
def test_adaptive_closes_as_floor_only_while_ct_sits_at_the_floor(
    kind, ngram_order, case_timeout, mt, min_size, count, alphabet, cases, seed
):
    """Up to the two rules' first differing close: at ``ct == mt`` the
    adaptive window closes exactly when floor-only does, and an adaptive
    close above the floor is a floor-only close too."""
    config = ViewConfig(kind, ngram_order=ngram_order, case_timeout=case_timeout)
    win = AdaptiveWindow(SpeciesView(config), ThresholdState(mt=mt), min_size)
    floor = FloorOnlyWindow(SpeciesView(config), mt, min_size)
    for event in rotating_case_events(count, alphabet, cases, seed):
        closed = win.process_event(event) is not None
        floor_closed = floor.process_event(event) is not None
        if win.threshold.ct == mt:
            assert closed == floor_closed
        elif closed:
            assert floor_closed
        if closed != floor_closed:
            break


# --- window lifecycle --------------------------------------------------------


def test_min_window_size_defers_close():
    # single repeated activity saturates coverage immediately
    view = SpeciesView(ViewConfig(ACTIVITY_NGRAM))
    win = AdaptiveWindow(view, ThresholdState(ct=0.5, mt=0.5), min_window_size=5)
    events = make_events("AAAAAA")
    records = [win.process_event(ev) for ev in events]
    assert [r is not None for r in records] == [False] * 4 + [True, False]
    rec = records[4]
    assert rec.size == 5
    assert rec.index == 0
    assert not rec.force_closed
    assert rec.coverage >= rec.threshold


def test_min_window_size_validation():
    view = SpeciesView(ViewConfig(ACTIVITY_NGRAM))
    with pytest.raises(ValueError):
        AdaptiveWindow(view, min_window_size=0)


def test_flush_emits_partial_window():
    view = SpeciesView(ViewConfig(ACTIVITY_NGRAM))
    win = AdaptiveWindow(view)
    for ev in make_events("AB"):
        assert win.process_event(ev) is None
    rec = win.flush()
    assert rec is not None
    assert rec.force_closed
    assert rec.size == 2
    assert win.flush() is None


def test_flush_on_empty_buffer_returns_none():
    win = AdaptiveWindow(SpeciesView(ViewConfig(ACTIVITY_NGRAM)))
    assert win.flush() is None


def test_bare_windower_closes_only_at_flush():
    """The base class's hooks start and complete no window: every event
    stays in one window, which only ``flush`` forces out."""
    win = Windower(SpeciesView(ViewConfig(ACTIVITY_NGRAM)))
    events = make_events("ABCABC")
    assert [win.process_event(ev) for ev in events] == [None] * len(events)
    rec = win.flush()
    assert rec.force_closed
    assert rec.events == tuple(events)
    assert (rec.index, rec.threshold) == (0, 0.0)
    assert win.flush() is None


def test_close_resets_statistics_but_keeps_threshold():
    view = SpeciesView(ViewConfig(ACTIVITY_NGRAM))
    win = AdaptiveWindow(view, ThresholdState(ct=0.5, mt=0.5), min_window_size=2)
    for ev in make_events("AAAA"):
        if win.process_event(ev) is not None:
            break
    assert win.windows_closed == 1
    # the next window counts only its own event: {A: 2, B: 1} would give 2.5
    win.process_event(Event("c1", "B", 5000))
    rec = win.flush()
    assert (rec.size, rec.chao1, rec.coverage) == (1, 1.0, 0.0)


def test_trace_variant_window_counts_completed_cases():
    cfg = ViewConfig(TRACE_VARIANT, case_timeout=1000)
    win = AdaptiveWindow(SpeciesView(cfg), min_window_size=1)
    for case, start in (("a", 0), ("c", 200)):
        win.process_event(Event(case, "A", start))
        win.process_event(Event(case, "B", start + 100))
    # a far future event completes both cases inside the open window; their
    # two A|B variants give coverage 1.0, which closes it at this event
    rec = win.process_event(Event("b", "Z", 10_000))
    assert (rec.size, rec.coverage) == (5, 1.0)


def test_record_fields_describe_buffer():
    view = SpeciesView(ViewConfig(ACTIVITY_NGRAM))
    win = AdaptiveWindow(view, ThresholdState(ct=0.5, mt=0.5), min_window_size=5)
    events = make_events("AABBA")
    rec = None
    for ev in events:
        rec = win.process_event(ev) or rec
    assert rec is not None
    assert rec.events == tuple(events)
    assert rec.first_ts == events[0].timestamp
    assert rec.last_ts == events[-1].timestamp


def test_window_record_keeps_its_dataclass_contract():
    # WindowRecord has a hand-written __init__; everything else is the dataclass's
    events = (Event("c", "A", 5),)
    rec = WindowRecord(0, events, 1, 5, 5, 0.5, 0.75, 2.5, 0.9)
    same = WindowRecord(
        index=0,
        events=events,
        size=1,
        first_ts=5,
        last_ts=5,
        coverage=0.5,
        completeness=0.75,
        chao1=2.5,
        threshold=0.9,
    )
    assert rec == same and hash(rec) == hash(same)
    assert rec.force_closed is False
    assert rec != WindowRecord(0, events, 1, 5, 5, 0.5, 0.75, 2.5, 0.9, True)
    assert rec != (0, events, 1, 5, 5, 0.5, 0.75, 2.5, 0.9, False)
    assert repr(rec) == (
        "WindowRecord(index=0, events=(Event(case_id='c', activity='A', timestamp=5),), "
        "size=1, first_ts=5, last_ts=5, coverage=0.5, completeness=0.75, chao1=2.5, "
        "threshold=0.9, force_closed=False)"
    )
    assert dataclasses.is_dataclass(rec)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.size = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        del rec.coverage
    assert [f.name for f in dataclasses.fields(WindowRecord)] == [
        "index",
        "events",
        "size",
        "first_ts",
        "last_ts",
        "coverage",
        "completeness",
        "chao1",
        "threshold",
        "force_closed",
    ]
    assert dataclasses.asdict(rec) == {
        "index": 0,
        "events": ({"case_id": "c", "activity": "A", "timestamp": 5},),
        "size": 1,
        "first_ts": 5,
        "last_ts": 5,
        "coverage": 0.5,
        "completeness": 0.75,
        "chao1": 2.5,
        "threshold": 0.9,
        "force_closed": False,
    }
    forced = dataclasses.replace(rec, force_closed=True, index=3)
    assert forced == WindowRecord(3, events, 1, 5, 5, 0.5, 0.75, 2.5, 0.9, True)
    for clone in (
        pickle.loads(pickle.dumps(rec)),
        copy.copy(rec),
        copy.deepcopy(rec),
    ):
        assert clone == rec and type(clone) is WindowRecord
    # dict-backed, not slotted: a record can be weakly referenced
    assert weakref.ref(rec)() is rec
    with pytest.raises(TypeError):
        WindowRecord(0, events, 1, 5, 5, 0.5, 0.75, 2.5)
    with pytest.raises(TypeError):
        WindowRecord(0, events, 1, 5, 5, 0.5, 0.75, 2.5, 0.9, False, 1)
    with pytest.raises(TypeError):
        WindowRecord(0, events, 1, 5, 5, 0.5, 0.75, 2.5, 0.9, extra=1)
    for r in (rec, forced):
        assert parse_window_record(window_record_to_json(r)) == r


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("cd"), st.sampled_from("ABCDEFG")), max_size=120),
    st.sampled_from(["adaptive", COUNT_TUMBLING]),
)
@example([("c", "A")] * 8, "adaptive")  # closes nothing: only the flush
@example([("c", a) for a in "ABACBDACEAB"], COUNT_TUMBLING)  # 11 = 7 + 4 forced
def test_record_estimates_are_those_of_its_own_activities(pairs, strategy):
    """Under activity 1-grams a window's species are its events' activities."""
    view = SpeciesView(ViewConfig(ACTIVITY_NGRAM))
    if strategy == "adaptive":
        win = AdaptiveWindow(view)
    else:
        win = BaselineWindow(view, BaselineConfig(COUNT_TUMBLING, count=7))
    records = [win.process_event(Event(c, a, i)) for i, (c, a) in enumerate(pairs)]
    records = [r for r in (*records, win.flush()) if r is not None]
    assert sum(r.size for r in records) == len(pairs)
    for r in records:
        stats = AbundanceStats()
        for ev in r.events:
            stats.observe(ev.activity)
        assert (r.chao1, r.completeness, r.coverage) == estimates(stats)


class TwoHookWindow(Windower):
    """A rule on both hooks: ``a0`` opens a window and completes it, so an
    ``a0`` after other events closes their window, then is complete alone."""

    def _starts_window(self, event):
        return event.activity == "a0"

    def _is_complete(self):
        return self._buffer[-1].activity == "a0"


STRATEGIES = {
    "adaptive": lambda view: AdaptiveWindow(view),
    COUNT_TUMBLING: lambda view: BaselineWindow(view, BaselineConfig(COUNT_TUMBLING)),
    TIME_TUMBLING: lambda view: BaselineWindow(
        view, BaselineConfig(TIME_TUMBLING, duration=500)
    ),
    LANDMARK: lambda view: BaselineWindow(
        view, BaselineConfig(LANDMARK, landmark_activity="a0")
    ),
    "two_hooks": TwoHookWindow,
}


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(sorted(STRATEGIES)),
    st.sampled_from([ACTIVITY_NGRAM, DIRECTLY_FOLLOWS, TRACE_VARIANT]),
)
def test_random_streams_partition_losslessly(seed, strategy, kind):
    events = random_events(seed=seed, count=200, alphabet=6, cases=4)
    win = STRATEGIES[strategy](SpeciesView(ViewConfig(kind, case_timeout=500)))
    records = [r for ev in events if (r := win.process_event(ev)) is not None]
    assert not any(r.force_closed for r in records)
    final = win.flush()
    if final is not None:
        assert final.force_closed
        records.append(final)
    assert [ev for r in records for ev in r.events] == events
    assert [r.index for r in records] == list(range(len(records)))
    if strategy != "adaptive":
        assert all(r.threshold == 0.0 for r in records)


@st.composite
def extreme_threshold_states(draw):
    """Every valid ``ThresholdState``, its knobs at and past the edges:
    ``mt`` down to the smallest float, ``dr`` and ``delta`` up to infinity."""
    mt = draw(st.sampled_from([5e-324, CT_CEILING]) | st.floats(5e-324, CT_CEILING))
    positive = st.sampled_from([5e-324, 1e308, math.inf]) | st.floats(
        min_value=0.0, exclude_min=True
    )
    return ThresholdState(
        ct=draw(st.sampled_from([mt, CT_CEILING]) | st.floats(mt, CT_CEILING)),
        sf=draw(
            st.sampled_from([SF_FLOOR, SF_CEILING]) | st.floats(SF_FLOOR, SF_CEILING)
        ),
        dr=draw(positive),
        mt=mt,
        delta=draw(positive),
        w=draw(st.integers(2, 6)),
    )


@settings(max_examples=300, deadline=None)
@given(
    state=extreme_threshold_states(),
    min_size=st.integers(1, 8),
    kind=st.sampled_from([ACTIVITY_NGRAM, DIRECTLY_FOLLOWS, TRACE_VARIANT]),
    ngram_order=st.integers(1, 3),
    case_timeout=st.sampled_from([1, 100, 10**7]),
    # (case, activity, ms since the previous event)
    steps=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 5),
            st.sampled_from([0, 1, 10**7]) | st.integers(0, 10**7),
        ),
        max_size=60,
    ),
)
def test_every_record_float_is_finite_and_in_range(
    state, min_size, kind, ngram_order, case_timeout, steps
):
    """What ``WindowRecord`` promises, for every strategy over one stream:
    each float is finite and none is -0.0, coverage and completeness are
    in [0, 1], the adaptive threshold is in [mt, 0.99], baselines carry
    0.0, and the windows hold every event."""
    events = []
    ts = 0
    for case, activity, gap in steps:
        ts += gap
        events.append(Event(f"c{case}", f"a{activity}", ts))
    config = ViewConfig(kind, ngram_order, case_timeout)
    rules = [
        BaselineConfig(COUNT_TUMBLING, count=min_size),
        BaselineConfig(TIME_TUMBLING, duration=case_timeout),
        BaselineConfig(LANDMARK, landmark_activity="a0"),
    ]
    windows = [AdaptiveWindow(SpeciesView(config), state, min_size)]
    windows += [BaselineWindow(SpeciesView(config), rule) for rule in rules]
    for win in windows:
        records = [win.process_event(ev) for ev in events] + [win.flush()]
        records = [r for r in records if r is not None]
        assert sum(r.size for r in records) == len(events)
        for r in records:
            floats = (r.coverage, r.completeness, r.chao1, r.threshold)
            assert all(map(math.isfinite, floats)), r
            # the record encoders print -0.0 as 0.0
            assert all(math.copysign(1.0, x) == 1.0 for x in floats), r
            assert 0.0 <= r.coverage <= 1.0 and 0.0 <= r.completeness <= 1.0, r
            if isinstance(win, AdaptiveWindow):
                assert state.mt <= r.threshold <= CT_CEILING, r
            else:
                assert r.threshold == 0.0, r
