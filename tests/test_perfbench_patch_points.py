"""The attributes the benchmark's span tracer patches still carry every event.

``perfbench/spans.py`` times each layer by replacing attributes of the
coverwin modules and classes for the length of a run.  A refactor that
moves a call off one of them leaves the benchmark's per-layer figures
quietly empty; these tests catch that in the regular suite.
"""

from __future__ import annotations

import argparse
import importlib
from pathlib import Path

import pytest

from coverwin import cli, driftgen, stream_io, window
from coverwin.abundance import AbundanceStats
from coverwin.baselines import BaselineWindow
from coverwin.stream_io import write_events_jsonl
from coverwin.views import SpeciesView
from coverwin.window import AdaptiveWindow

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SPAN_NAMES = (
    "cli.sink",
    "stream_io.replay",
    "stream_io.parse_event",
    "stream_io.window_record_to_json",
    "views.extract",
    "views.flush_cases",
    "abundance.observe",
    "abundance.coverage",
    "window.process_event",
    "baselines.process_event",
)

# what spans.instrument replaces while a run is traced
PATCH_POINTS = (
    (stream_io, "parse_event"),
    (cli, "replay"),
    (cli, "StreamServer"),
    (cli, "window_record_to_json"),
    (SpeciesView, "extract"),
    (SpeciesView, "flush_cases"),
    (AbundanceStats, "observe"),
    (window, "coverage_of"),
    (AdaptiveWindow, "process_event"),
    (BaselineWindow, "process_event"),
)


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def traced_analyze(spans, path: str, *flags: str) -> dict:
    tracer = spans.Tracer()
    with spans.instrument(tracer, spans.Counters()):
        assert cli.main(["analyze", path, *flags]) == 0
    return tracer.spans()


def test_every_traced_span_counts_each_event_once(spans, tmp_path):
    events, _ = driftgen.generate(driftgen.builtin_scenario("sudden"))
    path = str(tmp_path / "sudden.jsonl")
    write_events_jsonl(events, path)
    originals = [getattr(owner, attr) for owner, attr in PATCH_POINTS]

    adaptive = traced_analyze(spans, path, "--windows-out", str(tmp_path / "w.jsonl"))
    count = traced_analyze(spans, path, "--strategy", "count_tumbling")

    documented = " ".join(spans.instrument.__doc__.split())
    assert all(name in documented for name in SPAN_NAMES)
    assert set(adaptive) | set(count) == set(SPAN_NAMES)
    n = len(events)
    # both runs use the default view, the 1-gram, which keeps no case: its
    # extract must still be the class attribute, called once per event
    per_event = ("cli.sink", "stream_io.parse_event", "views.extract")
    for run, layer in ((adaptive, "window"), (count, "baselines")):
        for name in (*per_event, f"{layer}.process_event"):
            assert run[name]["count"] == n, name
    assert "baselines.process_event" not in adaptive
    assert "window.process_event" not in count
    # every patch is undone when the block ends
    now = [getattr(owner, attr) for owner, attr in PATCH_POINTS]
    assert all(a is b for a, b in zip(now, originals))


def test_build_parsers_still_returns_the_pair_the_harness_unpacks():
    parser, table = cli.build_parsers()
    assert isinstance(parser, argparse.ArgumentParser)
    assert table[("listen",)].prog.endswith("listen")
