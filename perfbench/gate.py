"""Output gate: byte-exact comparison against an in-process reference.

The reference feeds the same generated events through the same strategy
with ``bench.run_stream`` and serializes with ``window_record_to_json``,
so it follows the program's own record format.  The sizes CSV and the
summary line are rebuilt from the records in the format ``coverwin``
prints them.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from typing import Sequence

from coverwin import bench
from coverwin.stream_io import window_record_to_json
from coverwin.views import Event
from coverwin.window import WindowRecord

SIZES_HEADER = ("index", "size", "first_ts", "last_ts", "coverage", "threshold")


def _fmt(value: float) -> str:
    return format(value, ".6g")


def summary_line(records: Sequence[WindowRecord], delivered: int, dropped: int) -> str:
    if not records:
        return f"events={delivered} dropped={dropped} windows=0\n"
    sizes = [r.size for r in records]
    mean_cov = sum(r.coverage for r in records) / len(records)
    forced = sum(1 for r in records if r.force_closed)
    return (
        f"events={delivered} dropped={dropped} windows={len(records)} "
        f"mean_size={_fmt(sum(sizes) / len(sizes))} min_size={min(sizes)} "
        f"max_size={max(sizes)} mean_coverage={_fmt(mean_cov)} forced={forced}\n"
    )


def sizes_csv(records: Sequence[WindowRecord]) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(SIZES_HEADER)
    for r in records:
        coverage, threshold = _fmt(r.coverage), _fmt(r.threshold)
        writer.writerow((r.index, r.size, r.first_ts, r.last_ts, coverage, threshold))
    return buf.getvalue().encode("utf-8")


@dataclass(frozen=True)
class Reference:
    """Expected outputs of one run over ``events``."""

    events: tuple[Event, ...]
    sizes: tuple[int, ...]
    #: stream index of the last event of each window
    ends: tuple[int, ...]
    forced: tuple[bool, ...]
    windows_jsonl: bytes
    sizes_csv: bytes
    summary: bytes

    @property
    def last_regular(self) -> int:
        """Index of the last window closed without a forced flush, or -1."""
        for k in range(len(self.forced) - 1, -1, -1):
            if not self.forced[k]:
                return k
        return -1


def build_reference(events: Sequence[Event], strategy) -> Reference:
    records = bench.run_stream(events, strategy)
    sizes = tuple(r.size for r in records)
    return Reference(
        events=tuple(events),
        sizes=sizes,
        ends=tuple(end - 1 for end in itertools.accumulate(sizes)),
        forced=tuple(r.force_closed for r in records),
        windows_jsonl="".join(window_record_to_json(r) + "\n" for r in records).encode(
            "utf-8"
        ),
        sizes_csv=sizes_csv(records),
        summary=summary_line(records, len(events), 0).encode("utf-8"),
    )


@dataclass(frozen=True)
class Verdict:
    ok: bool
    found: int
    problems: tuple[str, ...]


def _found_in_windows(data: bytes, events: Sequence[Event]) -> int:
    """Leading input events that appear, in order, in the emitted windows."""
    want = 0
    for line in data.splitlines():
        try:
            emitted = json.loads(line)["events"]
        except (ValueError, KeyError, TypeError):
            break
        for e in emitted:
            if want < len(events):
                ref = events[want]
                if (e.get("case"), e.get("activity"), e.get("timestamp")) == (
                    ref.case_id,
                    ref.activity,
                    ref.timestamp,
                ):
                    want += 1
    return want


def _found_in_sizes(data: bytes, ref: Reference) -> int:
    """Events covered by the leading CSV rows that equal the reference rows."""
    got = data.splitlines()[1:]
    want = ref.sizes_csv.splitlines()[1:]
    found = 0
    for k, (a, b) in enumerate(zip(got, want)):
        if a != b:
            break
        found += ref.sizes[k]
    return found


def check(
    ref: Reference,
    summary: bytes,
    sizes_csv_bytes: bytes,
    windows_jsonl: bytes | None,
) -> Verdict:
    """Compare one program run's outputs with the reference, byte for byte.

    ``windows_jsonl`` is None when the workload writes no window records.
    ``found`` counts the input events found in order in the emitted
    windows; every other attempted event counts as failed.
    """
    problems = []
    if summary != ref.summary:
        problems.append(f"summary {summary[:200]!r} != {ref.summary!r}")
    if sizes_csv_bytes != ref.sizes_csv:
        problems.append("sizes CSV differs")
    if windows_jsonl is not None and windows_jsonl != ref.windows_jsonl:
        problems.append("window records differ")
    if not problems:
        return Verdict(True, len(ref.events), ())
    if windows_jsonl is not None:
        found = _found_in_windows(windows_jsonl, ref.events)
    else:
        found = _found_in_sizes(sizes_csv_bytes, ref)
    return Verdict(False, found, tuple(problems))
