"""Span tracing from the benchmark's side of each layer boundary.

``Tracer.wrap`` returns a wrapper that times every call of a callable and
aggregates per span name, in memory: call count, busy time (sum of span
durations) and self time (busy time minus the time covered by the span's
direct children).  Each thread keeps its own span stack and table, so
the TCP handler thread and the consumer thread never share a counter;
``spans`` merges the tables when the run ends.

``instrument`` installs wrappers around the public callables that the
``coverwin`` layers call each other through, and removes them on exit.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from coverwin import cli, stream_io, window
from coverwin.abundance import AbundanceStats
from coverwin.baselines import BaselineWindow
from coverwin.views import SpeciesView
from coverwin.window import AdaptiveWindow


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict[str, list]] = []
        self._lock = threading.Lock()

    def _thread_state(self) -> tuple[list[float], dict[str, list]]:
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack, local.table = [], {}
            with self._lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[object], None] | None = None,
    ) -> Callable:
        """``fn`` inside a span called ``name``.

        ``on_result`` sees each return value after the span has ended; it
        feeds the counters measured at this boundary.
        """
        state = self._thread_state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack, table = state()
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                agg = table.get(name)
                if agg is None:
                    agg = table[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def spans(self) -> dict[str, dict[str, float]]:
        merged: dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (count, busy, own) in table.items():
                agg = merged.setdefault(name, [0, 0.0, 0.0])
                agg[0] += count
                agg[1] += busy
                agg[2] += own
        return {
            name: {"count": c, "busy_s": b, "self_s": s}
            for name, (c, b, s) in sorted(merged.items())
        }


@dataclass
class Counters:
    """Counts taken at the traced boundaries, besides the span times."""

    #: regular closes per windowing layer, "window" or "baselines"
    closes: dict[str, int] = field(default_factory=dict)
    closed_events: int = 0
    species: int = 0
    open_cases_max: int = 0
    record_bytes: int = 0
    records: int = 0
    #: the StreamServer that cli built, once it has
    server: object = None
    backlog_max: int = 0
    #: when the handler thread finished parsing each event
    parsed_at: list[float] = field(default_factory=list)
    consumed: int = 0
    ingest_delays: list[float] = field(default_factory=list)


@contextmanager
def instrument(tracer: Tracer, counters: Counters) -> Iterator[None]:
    """Wrap the layer boundaries for the duration of the block.

    Spans: cli.sink (the callback cli hands to replay or the server),
    stream_io.replay, stream_io.parse_event, stream_io.window_record_to_json,
    views.extract, views.flush_cases, abundance.observe, abundance.coverage,
    window.process_event and baselines.process_event.
    """
    patches: list[tuple[object, str, object]] = []

    def patch(owner: object, attr: str, value: object) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    clock = time.perf_counter

    def on_parsed(_event: object) -> None:
        counters.parsed_at.append(clock())

    def on_close(layer: str) -> Callable[[object], None]:
        def count(record) -> None:
            if record is not None:
                counters.closes[layer] = counters.closes.get(layer, 0) + 1
                counters.closed_events += record.size

        return count

    def on_json(text: str) -> None:
        counters.records += 1
        counters.record_bytes += len(text.encode("utf-8"))

    extract = SpeciesView.extract

    def counting_extract(view: SpeciesView, event):
        species = extract(view, event)
        counters.species += len(species)
        if view.open_cases > counters.open_cases_max:
            counters.open_cases_max = view.open_cases
        return species

    def traced_sink(sink: Callable) -> Callable:
        inner = tracer.wrap("cli.sink", sink)

        def sink_with_ingest(event) -> None:
            server = counters.server
            if server is not None:
                parsed = counters.parsed_at
                k = counters.consumed
                if k < len(parsed):
                    counters.ingest_delays.append(clock() - parsed[k])
                counters.consumed = k + 1
                stats = server.stats
                backlog = stats.received - stats.dropped - stats.delivered
                if backlog > counters.backlog_max:
                    counters.backlog_max = backlog
            inner(event)

        return sink_with_ingest

    replay = cli.replay
    traced_replay = tracer.wrap("stream_io.replay", replay)

    def replay_with_traced_sink(source, sink):
        return traced_replay(source, traced_sink(sink))

    server_cls = cli.StreamServer

    def make_server(on_event, *args, **kwargs):
        server = server_cls(traced_sink(on_event), *args, **kwargs)
        counters.server = server
        return server

    patch(
        stream_io,
        "parse_event",
        tracer.wrap("stream_io.parse_event", stream_io.parse_event, on_parsed),
    )
    patch(cli, "replay", replay_with_traced_sink)
    patch(cli, "StreamServer", make_server)
    patch(
        cli,
        "window_record_to_json",
        tracer.wrap(
            "stream_io.window_record_to_json", cli.window_record_to_json, on_json
        ),
    )
    patch(SpeciesView, "extract", tracer.wrap("views.extract", counting_extract))
    patch(
        SpeciesView,
        "flush_cases",
        tracer.wrap("views.flush_cases", SpeciesView.flush_cases),
    )
    patch(
        AbundanceStats,
        "observe",
        tracer.wrap("abundance.observe", AbundanceStats.observe),
    )
    patch(window, "coverage_of", tracer.wrap("abundance.coverage", window.coverage_of))
    patch(
        AdaptiveWindow,
        "process_event",
        tracer.wrap(
            "window.process_event", AdaptiveWindow.process_event, on_close("window")
        ),
    )
    patch(
        BaselineWindow,
        "process_event",
        tracer.wrap(
            "baselines.process_event",
            BaselineWindow.process_event,
            on_close("baselines"),
        ),
    )
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
