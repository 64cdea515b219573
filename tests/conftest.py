"""Shared fixtures, independent reference implementations and test-only rules.

The reference functions below are deliberately written from the closed
formulas, not by calling into the package, so that unit tests compare
two separate derivations of the same quantity.  They were written and
frozen before the production code was tested against them.

Code that only tests need lives here too, not in the package:
``parse_window_record``, the inverse of ``window_record_to_json`` for
record round trips, and ``FloorOnlyWindow``, the adaptive close rule
without its threshold, which shows where the adaptation moves a window
boundary.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import replace
from typing import Iterable, Sequence

import pytest

from coverwin import (
    AbundanceStats,
    AdaptiveWindow,
    Event,
    SpeciesView,
    ThresholdState,
    ViewConfig,
    WindowRecord,
    coverage,
    parse_event,
)
from coverwin.window import Windower, _next_threshold

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


# --- reference estimators ----------------------------------------------------


def naive_tallies(observations: Iterable[str]) -> tuple[int, int, int, int]:
    """(n, species, singletons, doubletons) recounted from scratch."""
    counts = Counter(observations)
    n = sum(counts.values())
    s = len(counts)
    f1 = sum(1 for c in counts.values() if c == 1)
    f2 = sum(1 for c in counts.values() if c == 2)
    return n, s, f1, f2


def ref_chao1(n: int, s: int, f1: int, f2: int) -> float:
    if n == 0:
        return 0.0
    if f2 > 0:
        return s + (f1 * f1) / (2.0 * f2)
    return s + (f1 * (f1 - 1)) / 2.0


def ref_completeness(n: int, s: int, f1: int, f2: int) -> float:
    if n == 0:
        return 0.0
    return s / ref_chao1(n, s, f1, f2)


def ref_coverage(n: int, s: int, f1: int, f2: int) -> float:
    if n == 0:
        return 0.0
    if f1 == 0:
        return 1.0
    denom = (n - 1) * f1 + 2 * f2
    if denom == 0:
        return 0.0
    value = 1.0 - (f1 / n) * (1.0 - (2.0 * f2) / denom)
    return min(max(value, 0.0), 1.0)


# --- reference serialization ---------------------------------------------------


def dumps_window_record(record: WindowRecord) -> str:
    """The json.dumps form window_record_to_json must reproduce; a record
    holds no -0.0, so a zero of either sign is given as 0.0."""
    return json.dumps(
        {
            "index": record.index,
            "size": record.size,
            "first_ts": record.first_ts,
            "last_ts": record.last_ts,
            "coverage": record.coverage + 0.0,
            "completeness": record.completeness + 0.0,
            "chao1": record.chao1 + 0.0,
            "threshold": record.threshold + 0.0,
            "force_closed": record.force_closed,
            "events": [
                {"case": e.case_id, "activity": e.activity, "timestamp": e.timestamp}
                for e in record.events
            ],
        },
        separators=(",", ":"),
    )


def parse_window_record(line: str) -> WindowRecord:
    """Inverse of window_record_to_json."""
    obj = json.loads(line)
    obj["events"] = tuple(
        Event(e["case"], e["activity"], e["timestamp"]) for e in obj["events"]
    )
    return WindowRecord(**obj)


# --- event helpers -----------------------------------------------------------


def make_events(
    activities: Sequence[str],
    case_id: str = "c1",
    start: int = 1000,
    gap: int = 1000,
) -> list[Event]:
    return [
        Event(case_id, act, start + i * gap) for i, act in enumerate(activities)
    ]


def load_jsonl(path: str) -> list[Event]:
    events = []
    with open(path, encoding="utf-8") as fp:
        for line_no, line in enumerate(fp, start=1):
            if line.strip():
                events.append(parse_event(line, "jsonl", line_no))
    return events


@pytest.fixture
def worked_example_events() -> list[Event]:
    """Single case running A B A C B D A C E, one event per second."""
    return load_jsonl(os.path.join(DATA_DIR, "worked_example.jsonl"))


# --- adaptive-window reference run --------------------------------------------
#
# batch_reference_run restates the windowing loop with no incremental
# shortcuts: after every event it recomputes the threshold with the pure
# full-scan update.  Comparing it against AdaptiveWindow checks that the
# engine's O(1) running-argmax bookkeeping never diverges from the
# full rescan.


def _is_stagnant(history: Sequence[float], state: ThresholdState) -> bool:
    n = len(history)
    if n < state.w:
        return False
    return all(
        abs(history[k] - history[k + 1]) < state.delta
        for k in range(n - state.w, n - 1)
    )


def update_threshold(history: Sequence[float], state: ThresholdState) -> ThresholdState:
    """One threshold adjustment from the open window's coverage curve.

    The curvature r''(i) = C[i-1] - 2 C[i] + C[i+1] is scanned over the
    interior points; the coverage value just past the strongest elbow
    (ties resolved to the earliest index) becomes the target the
    threshold is pulled toward.  If the last ``w`` coverage points moved
    by less than ``delta`` each, the curve is stagnating: the smoothing
    factor grows and the threshold additionally decays by ``dr``, down to
    the floor ``mt``.  The result is clamped to [mt, 0.99].  A window whose
    coverage never reaches ``mt`` still stays open, e.g. one in which
    every event brings a new species.
    """
    n = len(history)
    if n < 3:
        raise ValueError("threshold update needs at least 3 coverage points")
    best_i = 1
    best = history[0] - 2.0 * history[1] + history[2]
    for i in range(2, n - 1):
        r2 = history[i - 1] - 2.0 * history[i] + history[i + 1]
        if r2 > best:
            best = r2
            best_i = i
    ct, sf = _next_threshold(
        state.ct,
        state.sf,
        state.dr,
        state.mt,
        history[best_i + 1],
        _is_stagnant(history, state),
    )
    return replace(state, ct=ct, sf=sf)


def batch_reference_run(
    events: Sequence[Event],
    config: ViewConfig,
    state0: ThresholdState,
    min_size: int,
) -> tuple[list[float], list[int], int]:
    """(per-event ct trajectory, closing event indices, total observations)."""
    view = SpeciesView(config)
    stats = AbundanceStats()
    state = state0
    history: list[float] = []
    buffered = 0
    total_obs = 0
    cts: list[float] = []
    closes: list[int] = []
    for idx, ev in enumerate(events):
        buffered += 1
        for sp in view.extract(ev):
            stats.observe(sp)
            total_obs += 1
        cov = coverage(stats)
        history.append(cov)
        if len(history) >= 3:
            state = update_threshold(history, state)
        cts.append(state.ct)
        if cov >= state.ct and buffered >= min_size:
            closes.append(idx)
            buffered = 0
            stats = AbundanceStats()
            history = []
    return cts, closes, total_obs


def adaptive_run(
    events: Sequence[Event],
    config: ViewConfig,
    state0: ThresholdState,
    min_size: int,
) -> tuple[list[float], list[int]]:
    win = AdaptiveWindow(SpeciesView(config), state0, min_window_size=min_size)
    cts: list[float] = []
    closes: list[int] = []
    for idx, ev in enumerate(events):
        record = win.process_event(ev)
        cts.append(win.threshold.ct)
        if record is not None:
            closes.append(idx)
    return cts, closes


class FloorOnlyWindow(Windower):
    """The adaptive close rule with ``ct`` held at the floor ``mt``.

    A window closes once coverage reaches ``mt`` and it holds at least
    ``min_window_size`` events; no threshold state is kept.
    """

    def __init__(self, view: SpeciesView, mt: float, min_window_size: int) -> None:
        super().__init__(view)
        self.mt = mt
        self.min_window_size = min_window_size

    def _is_complete(self) -> bool:
        return (
            coverage(self._stats) >= self.mt
            and len(self._buffer) >= self.min_window_size
        )


def rotating_case_events(
    count: int, alphabet: int, cases: int, seed: int, ts_step: int = 37
) -> list[Event]:
    """Random-activity stream over a fixed set of round-robin cases.

    Small case counts keep per-case context alive (n-gram and pair
    views); large ones make cases idle long enough to time out, which
    is what drives trace-variant completion.
    """
    rng = random.Random(seed)
    return [
        Event(f"c{i % cases}", f"a{rng.randrange(alphabet)}", (i + 1) * ts_step)
        for i in range(count)
    ]
