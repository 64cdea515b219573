"""End-to-end command-line behavior, driven in-process through main()."""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import gc
import io
import json
import math
import os
import queue
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import weakref
from dataclasses import asdict
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import coverwin
from coverwin import driftgen
from coverwin.baselines import BASELINE_KINDS, BaselineConfig
from coverwin.bench import drift_adaptation_stats, first_window_at_case, run_stream
from coverwin.cli import (
    SIZES_HEADER,
    _SIZES_FLOATS,
    _SUMMARY_FLOATS,
    _int_list,
    _line,
    _make_source,
    _make_strategy,
    _RecordWriter,
    _sizes_line,
    _summary_line,
    build_parsers,
    cmd_listen,
    load_config_file,
    main,
)
from coverwin.stream_io import (
    FILE_CSV,
    FLOAT_TEXTS_MAX,
    _JSON_FLOATS,
    SourceConfig,
    StopServing,
    StreamServer,
    event_to_json_line,
    window_record_to_json,
    write_events_jsonl,
)
from coverwin.views import VIEW_KINDS, Event, SpeciesView, ViewConfig
from coverwin.window import ThresholdState, Windower, WindowRecord

from conftest import DATA_DIR, dumps_window_record, make_events, parse_window_record

WORKED = f"{DATA_DIR}/worked_example.jsonl"
ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = os.path.dirname(os.path.dirname(coverwin.__file__))


def checkout_env():
    """The environment of a child interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return env


def sizes_cells(r):
    """A sizes-CSV row's cells, for ``csv.writer`` as the reference; -0.0
    prints as 0.0, the only zero a record holds."""
    cov, thr = format(r.coverage + 0.0, ".6g"), format(r.threshold + 0.0, ".6g")
    return (r.index, r.size, r.first_ts, r.last_ts, cov, thr)


FINITE_EDGE_FLOATS = [-0.0, 1e-300, 1e21]
EDGE_FLOATS = [math.nan, math.inf, -math.inf, *FINITE_EDGE_FLOATS]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(),
    st.integers(),
    st.integers(),
    st.integers(),
    st.floats() | st.sampled_from(EDGE_FLOATS),
    st.floats() | st.sampled_from(EDGE_FLOATS),
)
@example(-1, -2, -3, -4, math.nan, -0.0)
@example(0, 1, 2, 3, math.inf, -math.inf)
@example(0, 1, 2, 3, 1e-300, 1e21)
def test_sizes_line_is_csv_writers_row(index, size, first_ts, last_ts, cov, thr):
    record = WindowRecord(index, (), size, first_ts, last_ts, cov, 0.0, 0.0, thr)
    assert _sizes_line(record) == csv_writers_row(record)


def csv_writers_row(record):
    expected = io.StringIO(newline="")
    csv.writer(expected).writerow(sizes_cells(record))
    return expected.getvalue()


BIG_FLOATS = [1.7976931348623157e308, -1e300, 5e-324, 1e-7, -4.5e-7]


# a window record's floats are finite (see WindowRecord)
summary_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    FINITE_EDGE_FLOATS + BIG_FLOATS
)


@settings(max_examples=300, deadline=None)
@given(st.integers(), st.integers(), summary_floats, summary_floats, st.booleans())
# the largest finite float for both
@example(7, 3, 1.7976931348623157e308, 1.7976931348623157e308, False)
@example(12, 5, 5e-324, 1e21, True)
def test_summary_line_is_json_dumps_of_the_summary(index, size, cov, thr, forced):
    record = WindowRecord(index, (), size, 0, 0, cov, 0.0, 0.0, thr, forced)
    assert _summary_line(record) == json_dumps_of_the_summary(record)


def json_dumps_of_the_summary(record):
    summary = {
        "index": record.index,
        "size": record.size,
        "coverage": round(record.coverage + 0.0, 6),
        "threshold": round(record.threshold + 0.0, 6),
        "force_closed": record.force_closed,
    }
    return json.dumps(summary) + "\n"


# each record encoder, the FloatTexts behind it and the text it must give
MEMO_ENCODERS = (
    (window_record_to_json, _JSON_FLOATS, dumps_window_record),
    (_sizes_line, _SIZES_FLOATS, csv_writers_row),
    (_summary_line, _SUMMARY_FLOATS, json_dumps_of_the_summary),
)


def record_of(value):
    """A record whose four floats are all ``value``."""
    return WindowRecord(3, (), 7, 10, 20, value, value, value, value)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from([0.0, -0.0, 0.5, 1e-7, -1e-7, 0.1 + 0.2, *EDGE_FLOATS])
        | st.floats(),
        max_size=12,
    )
)
@example([0.0, -0.0, 0.0])
@example([-0.0, 0.0, -0.0])
@example([0.65, 0.65])
@example([math.nan, math.nan, math.inf, -math.inf, math.inf])
def test_float_memos_print_what_plain_formatting_prints(values):
    """The memos start empty; a zero of either sign, looked up after the
    other, a value met twice and, in the sizes row, NaN and the infinities
    print as the standard library prints them (-0.0 as 0.0)."""
    for _, memo, _ in MEMO_ENCODERS:
        memo.clear()
    for value in values:
        record = record_of(value)
        for encode, _, reference in MEMO_ENCODERS:
            # only the sizes row is asked to print a non-finite float
            if math.isfinite(value) or encode is _sizes_line:
                assert encode(record) == reference(record)
    for _, memo, _ in MEMO_ENCODERS:
        assert all(type(v) is float for v in memo)


def test_float_memos_print_either_zero_as_zero():
    """0.0 and -0.0 are one key; it holds the text of 0.0 whichever sign
    comes first."""
    zeros = ((_JSON_FLOATS, "0.0"), (_SIZES_FLOATS, "0"), (_SUMMARY_FLOATS, "0.0"))
    for memo, zero in zeros:
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            memo.clear()
            assert (memo[first], memo[second]) == (zero, zero)
            assert list(memo.items()) == [(0.0, zero)]


def test_float_memos_hold_at_most_their_cap():
    values = [0.5 + i / 2**20 for i in range(FLOAT_TEXTS_MAX + 100)]
    for encode, memo, reference in MEMO_ENCODERS:
        memo.clear()
        for value in values:
            record = record_of(value)
            assert encode(record) == reference(record)
            assert 0 < len(memo) <= FLOAT_TEXTS_MAX


def read_csv(path):
    with open(path, newline="") as fp:
        return list(csv.reader(fp))


def test_no_command_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_estimate_worked_example(capsys):
    assert main(["estimate", WORKED]) == 0
    out = capsys.readouterr().out
    assert "n=9 species=5 f1=2 f2=2" in out
    assert "chao1=6 " in out
    assert "completeness=0.833333" in out
    assert "coverage=0.822222" in out
    assert "events=9 dropped=0" in out


def test_estimate_directly_follows_view(capsys):
    assert main(["estimate", WORKED, "--view", "directly_follows"]) == 0
    out = capsys.readouterr().out
    assert "n=8 species=7 f1=6 f2=1" in out
    assert "chao1=25 " in out


def test_estimate_memory_does_not_grow_with_the_stream(tmp_path, capsys):
    """estimate keeps counts, not events: 10x the events, about the same peak."""

    def write(count):
        path = str(tmp_path / f"{count}.jsonl")
        events = [Event(f"c{i % 5}", f"a{i % 10}", (i + 1) * 100) for i in range(count)]
        write_events_jsonl(events, path)
        return path

    def peak(path):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert main(["estimate", path]) == 0
        return tracemalloc.get_traced_memory()[1] - start

    small, large = write(2_000), write(20_000)
    tracemalloc.start()
    try:
        peak(small)  # warm-up: first-run imports and caches
        small_peak, large_peak = peak(small), peak(large)
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert large_peak - small_peak <= 256 * 1024, (small_peak, large_peak)


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(("c1", "c2", "c3", "c4")),
            st.sampled_from("ABCD"),
            st.integers(0, 150),
        ),
        max_size=40,
    ),
    view=st.sampled_from(VIEW_KINDS),
    order=st.integers(1, 3),
    timeout=st.sampled_from((1, 10, 100)),
)
def test_estimate_feeds_species_by_the_rule_windower_follows(
    steps, view, order, timeout
):
    """estimate prints the estimates of the one record that a Windower with
    no close rule flushes over the same events; the gaps and timeouts let
    cases go idle mid-stream.  No events print zeros."""
    events, ts = [], 0
    for case_id, activity, gap in steps:
        ts += gap
        events.append(Event(case_id, activity, ts))
    windower = Windower(SpeciesView(ViewConfig(view, order, timeout)))
    for event in events:
        assert windower.process_event(event) is None
    record = windower.flush()
    values = (0.0, 0.0, 0.0)
    if record is not None:
        values = (record.chao1, record.completeness, record.coverage)
    expected = " ".join(
        f"{key}={value:.6g}"
        for key, value in zip(("chao1", "completeness", "coverage"), values)
    )
    flags = ["--view", view, "--ngram", str(order), "--case-timeout", str(timeout)]
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "events.jsonl")
        write_events_jsonl(events, path)
        with contextlib.redirect_stdout(stdout):
            assert main(["estimate", path, *flags]) == 0
    assert f" {expected} " in stdout.getvalue()


def test_analyze_writes_windows_and_sizes(tmp_path, capsys):
    windows_path = str(tmp_path / "win.jsonl")
    sizes_path = str(tmp_path / "sizes.csv")
    code = main(
        [
            "analyze",
            WORKED,
            "--windows-out",
            windows_path,
            "--sizes-csv",
            sizes_path,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "events=9 dropped=0 windows=" in out

    with open(windows_path, encoding="utf-8") as fp:
        records = [parse_window_record(line) for line in fp]
    assert records
    replayed = [ev for rec in records for ev in rec.events]
    assert len(replayed) == 9  # lossless partition of the input

    rows = read_csv(sizes_path)
    assert rows[0] == ["index", "size", "first_ts", "last_ts", "coverage", "threshold"]
    assert len(rows) == 1 + len(records)


def test_analyze_verbose_prints_window_lines(tmp_path, capsys):
    events = make_events("AAAAAAA")
    path = str(tmp_path / "ev.jsonl")
    write_events_jsonl(events, path)
    assert main(["analyze", path, "--verbose"]) == 0
    err = capsys.readouterr().err
    assert '"index": 0' in err
    assert '"size": 5' in err


def test_record_writer_keeps_no_record(tmp_path, capsys):
    sizes_path = str(tmp_path / "sizes.csv")
    args = argparse.Namespace(windows_out=None, sizes_csv=sizes_path)
    strategy = Windower(SpeciesView(ViewConfig()))
    writer = _RecordWriter(strategy, verbose=False)
    writer.open_outputs(args)
    events = tuple(make_events("AB"))
    record = WindowRecord(0, events, 2, 0, 1000, 0.5, 0.5, 2.0, 0.9)
    ref = weakref.ref(record)
    writer.emit(record)
    del record
    gc.collect()
    assert ref() is None
    writer.close()
    writer.print_summary(2, 0)
    assert "windows=1 mean_size=2 min_size=2 max_size=2" in capsys.readouterr().out
    header = ["index", "size", "first_ts", "last_ts", "coverage", "threshold"]
    assert read_csv(sizes_path) == [header, ["0", "2", "0", "1000", "0.5", "0.9"]]
    writer = _RecordWriter(strategy, verbose=False)
    writer.open_outputs(args)
    writer.close()
    assert read_csv(sizes_path) == [header]


def test_analyze_count_strategy(tmp_path, capsys):
    events = make_events("ABCABCABCABCAB")  # 14 events
    path = str(tmp_path / "ev.jsonl")
    write_events_jsonl(events, path)
    code = main(["analyze", path, "--strategy", "count_tumbling", "--count", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "windows=2" in out
    assert "mean_size=7" in out


def test_analyze_refuses_a_nan_decay(tmp_path, capsys):
    path = str(tmp_path / "ev.jsonl")
    write_events_jsonl(make_events("ABCABC"), path)
    assert main(["analyze", path, "--dr", "nan"]) == 1
    assert capsys.readouterr().err == "coverwin: dr must be positive\n"


def test_analyze_takes_an_infinite_decay(tmp_path, capsys):
    """ct - inf is clamped to the floor mt, so every record stays valid JSON."""
    events, _ = driftgen.generate(driftgen.builtin_scenario("sudden"))
    path, windows = str(tmp_path / "ev.jsonl"), tmp_path / "win.jsonl"
    write_events_jsonl(events, path)
    assert main(["analyze", path, "--dr", "inf", "--windows-out", str(windows)]) == 0
    assert "windows=" in capsys.readouterr().out

    def refuse(name):
        raise AssertionError(f"{name} in a window record")

    for line in windows.read_text(encoding="utf-8").splitlines():
        assert json.loads(line, parse_constant=refuse)["threshold"] >= 0.5


def test_analyze_missing_file_fails(capsys):
    assert main(["analyze", "/nonexistent/ev.jsonl"]) == 1
    assert "coverwin:" in capsys.readouterr().err


def outputs_holding_data(tmp_path):
    """``--windows-out`` and ``--sizes-csv`` naming files of an earlier run."""
    windows, sizes = tmp_path / "w.jsonl", tmp_path / "s.csv"
    windows.write_bytes(b'{"index":0,"size":7}\n')
    sizes.write_bytes(b"index,size\r\n0,7\r\n")
    return ["--windows-out", str(windows), "--sizes-csv", str(sizes)], (windows, sizes)


def test_analyze_of_a_missing_file_leaves_the_outputs(tmp_path, capsys):
    flags, paths = outputs_holding_data(tmp_path)
    before = [p.read_bytes() for p in paths]
    assert main(["analyze", str(tmp_path / "missing.jsonl"), *flags]) == 1
    assert "coverwin: [Errno 2] No such file or directory" in capsys.readouterr().err
    assert [p.read_bytes() for p in paths] == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_analyze_into_a_full_device_fails_with_one_line(tmp_path, capsys, monkeypatch):
    events, _ = driftgen.generate(driftgen.builtin_scenario("sudden"))
    path = str(tmp_path / "sudden.jsonl")
    write_events_jsonl(events, path)
    opened = opened_files(monkeypatch)
    sizes = str(tmp_path / "sizes.csv")
    assert main(["analyze", path, "--windows-out", "/dev/full", "--sizes-csv", sizes]) == 1
    assert capsys.readouterr() == ("", f"coverwin: {FULL_DEVICE_ERROR}\n")
    # the input's open check, then both outputs
    assert len(opened) == 3 and all(fp.closed for fp in opened)


class BrokenStderr:
    """A stand-in for ``sys.stderr`` whose writes fail from the start, or
    once the line that holds ``last`` has ended; keeps the text it took."""

    def __init__(self, last=None):
        self.last = last
        self.text = ""

    @property
    def broken(self):
        return self.last is None or "\n" in self.text.partition(self.last)[2]

    def write(self, text):
        if self.broken:
            raise OSError(errno.EIO, "Input/output error")
        self.text += text
        return len(text)

    def flush(self):
        pass


def windows_cover_a_prefix(sizes, first, last, events):
    """Windows given as (size, first_ts, last_ts) columns hold, in order and
    without gap or overlap, the first ``sum(sizes)`` of ``events``."""
    n = sum(sizes)
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    ts = [e.timestamp for e in events[:n]]
    return first == [ts[s] for s in starts] and last == [
        ts[s + size - 1] for s, size in zip(starts, sizes)
    ]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("failing", ["--windows-out", "--sizes-csv", "stderr"])
def test_analyze_flushes_every_other_output_when_one_fails(
    tmp_path, capsys, monkeypatch, failing
):
    """The first failed write, to any output, ends the read: the open window
    is flushed to the outputs that did not fail, so each of them holds
    windows that partition a prefix of the input, the last one forced, and
    the run exits 1 with that failure alone.  Landmark windows keep the
    event that closed a window in the open one."""
    events = [Event("c", "A" if i % 3 == 0 else "B", i) for i in range(3000)]
    path = str(tmp_path / "ev.jsonl")
    write_events_jsonl(events, path)
    outputs = {"--windows-out": tmp_path / "w.jsonl", "--sizes-csv": tmp_path / "s.csv"}
    flags = ["--strategy", "landmark", "--landmark-activity", "A"]
    if failing == "stderr":
        monkeypatch.setattr(sys, "stderr", BrokenStderr())
        flags.append("--verbose")
    else:
        outputs[failing] = Path("/dev/full")
    for flag, out in outputs.items():
        flags += [flag, str(out)]
    assert main(["analyze", path, *flags]) == 1
    if failing != "stderr":
        assert capsys.readouterr() == ("", f"coverwin: {FULL_DEVICE_ERROR}\n")
    if failing != "--windows-out":
        lines = outputs["--windows-out"].read_text(encoding="utf-8").splitlines()
        records = [parse_window_record(line) for line in lines]
        held = [e for r in records for e in r.events]
        assert held == events[: len(held)]
        assert [r.force_closed for r in records] == [False] * (len(records) - 1) + [True]
        assert 1 < len(records) < 1000
    if failing != "--sizes-csv":
        rows = [list(map(int, row[1:4])) for row in read_csv(outputs["--sizes-csv"])[1:]]
        sizes, first, last = (list(column) for column in zip(*rows))
        assert windows_cover_a_prefix(sizes, first, last, events)
        # a landmark window of this stream holds 3 events unless forced
        assert sizes == [3] * (len(sizes) - 1) + [1] and 1 < len(sizes) < 1000


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_main_exits_1_when_stderr_cannot_take_the_error(tmp_path, monkeypatch):
    """``main`` reports a failed output on stderr; when stderr fails too, the
    report is lost but the exit status is not."""
    path = str(tmp_path / "ev.jsonl")
    write_events_jsonl([Event("c", "A", i) for i in range(100)], path)
    monkeypatch.setattr(sys, "stderr", BrokenStderr())
    assert main(["analyze", path, "--verbose", "--windows-out", "/dev/full"]) == 1


def test_analyze_rejects_out_of_order(tmp_path, capsys):
    path = tmp_path / "ev.jsonl"
    lines = [
        '{"case": "c", "activity": "A", "timestamp": 100}',
        '{"case": "c", "activity": "B", "timestamp": 50}',
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    assert "input error" in capsys.readouterr().err


# lines json.loads fails on with ValueError or RecursionError, not JSONDecodeError
UNDECODABLE_LINES = {
    "deep": "[" * 5000,
    "long-int": '{"case":"c","activity":"A","timestamp":' + "1" * 4301 + "}",
}


@pytest.mark.parametrize("bad", UNDECODABLE_LINES.values(), ids=UNDECODABLE_LINES)
def test_analyze_answers_an_undecodable_line_as_an_input_error(tmp_path, capsys, bad):
    path = tmp_path / "ev.jsonl"
    good = event_to_json_line(Event("c", "A", 1))
    path.write_text(f"{good}\n{bad}\n{good}\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("coverwin: input error: invalid JSON: "), err
    assert err.endswith(" (line 2)\n") and err.count("\n") == 1, err


# CSV input csv.reader refuses, in a data row or in the header: text, line
UNREADABLE_CSV = {
    "cr-in-row": ("case_id,activity,timestamp\nc1,a\rb,1\n", 2),
    "cr-in-header": ("case_id,activ\rity,timestamp\nc1,ab,1\n", 1),
    "long-field": (
        "case_id,activity,timestamp\nc1," + "a" * (csv.field_size_limit() + 1) + ",1\n",
        2,
    ),
}


@pytest.mark.parametrize("command", [["analyze"], ["estimate"]])
@pytest.mark.parametrize(
    ("text", "line_no"), UNREADABLE_CSV.values(), ids=UNREADABLE_CSV
)
def test_unreadable_csv_is_an_input_error(tmp_path, capsys, command, text, line_no):
    path = tmp_path / "ev.csv"
    path.write_bytes(text.encode())
    assert main([*command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("coverwin: input error: "), err
    assert err.endswith(f" (line {line_no})\n") and err.count("\n") == 1, err


@pytest.mark.parametrize("flag", ["--windows-out", "--sizes-csv"])
def test_analyze_refuses_an_output_that_is_its_input(tmp_path, capsys, flag):
    path = tmp_path / "ev.jsonl"
    shutil.copy(WORKED, path)
    before = path.read_bytes()
    link = tmp_path / "link.jsonl"
    link.symlink_to(path)
    for out in (path, link):
        assert main(["analyze", str(path), flag, str(out)]) == 1
        expected = f"coverwin: output {out} is the input file\n"
        assert capsys.readouterr() == ("", expected)
        assert path.read_bytes() == before


def one_file_twice(tmp_path, how):
    """A file, and another path that names it ``how``."""
    first = tmp_path / "out"
    if how == "missing":  # not there yet: only the real paths tell
        return first, os.path.join(tmp_path, ".", "out")
    first.write_bytes(b"kept\n")
    second = tmp_path / "second"
    if how == "same":
        return first, str(first)
    if how == "symlink":
        second.symlink_to(first)
    else:
        os.link(first, second)
    return first, str(second)


SHARED_FILE = ["same", "symlink", "hardlink", "missing"]


@pytest.mark.parametrize("how", SHARED_FILE)
def test_analyze_and_listen_refuse_one_file_for_both_outputs(tmp_path, capsys, how):
    """Before any file opens: one line and exit 1, and the file as it was."""
    first, second = one_file_twice(tmp_path, how)
    before = first.read_bytes() if first.exists() else None
    flags = ["--windows-out", str(first), "--sizes-csv", second]
    expected = f"output {second} is the --windows-out file"
    assert main(["analyze", WORKED, *flags]) == 1
    assert capsys.readouterr() == ("", f"coverwin: {expected}\n")
    args = build_parsers()[0].parse_args(["listen", "--port", "0", *flags])
    with pytest.raises(ValueError) as refused:  # main prints it as above
        cmd_listen(args, threading.Event())
    assert str(refused.value) == expected
    assert capsys.readouterr() == ("", "")
    assert (first.read_bytes() if first.exists() else None) == before


@pytest.mark.parametrize("how", SHARED_FILE)
def test_driftgen_refuses_one_file_for_log_and_annotations(tmp_path, capsys, how):
    first, second = one_file_twice(tmp_path, how)
    before = first.read_bytes() if first.exists() else None
    argv = ["driftgen", "--scenario", "sudden", "--out", str(first)]
    assert main([*argv, "--annotations", second]) == 2
    assert capsys.readouterr() == ("", f"driftgen: output {second} is the --out file\n")
    assert (first.read_bytes() if first.exists() else None) == before


def test_driftgen_refuses_a_log_over_its_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("{}")  # refused before it is read
    before = spec.read_bytes()
    assert main(["driftgen", "--spec", str(spec), "--out", str(spec)]) == 2
    assert capsys.readouterr() == ("", f"driftgen: output {spec} is the --spec file\n")
    assert spec.read_bytes() == before


def test_analyze_lenient_drops_and_reports(tmp_path, capsys):
    path = tmp_path / "ev.jsonl"
    lines = [
        '{"case": "c", "activity": "A", "timestamp": 100}',
        '{"case": "c", "activity": "B", "timestamp": 50}',
        '{"case": "c", "activity": "C", "timestamp": 200}',
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["analyze", str(path), "--lenient"]) == 0
    assert "dropped=1" in capsys.readouterr().out


def test_driftgen_scenario(tmp_path, capsys):
    out = str(tmp_path / "ev.jsonl")
    assert main(["driftgen", "--scenario", "steady3", "--out", out]) == 0
    line = capsys.readouterr().out
    assert "events=900 cases=300" in line
    assert "seed=21" in line
    with open(out, encoding="utf-8") as fp:
        assert sum(1 for _ in fp) == 900
    with open(out + ".annotations.json", encoding="utf-8") as fp:
        assert "pool_per_case" in fp.read()


def test_driftgen_seed_override(tmp_path, capsys):
    out = str(tmp_path / "ev.jsonl")
    assert main(["driftgen", "--scenario", "steady3", "--seed", "5", "--out", out]) == 0
    assert "seed=5" in capsys.readouterr().out


def test_driftgen_csv_output(tmp_path):
    out = str(tmp_path / "ev.csv")
    assert main(["driftgen", "--scenario", "steady3", "--out", out]) == 0
    rows = read_csv(out)
    assert rows[0] == ["case_id", "activity", "timestamp"]
    assert len(rows) == 901


def test_driftgen_requires_exactly_one_source(tmp_path, capsys):
    out = str(tmp_path / "ev.jsonl")
    assert main(["driftgen", "--out", out]) == 2
    assert (
        main(
            [
                "driftgen",
                "--scenario",
                "steady3",
                "--spec",
                "x.json",
                "--out",
                out,
            ]
        )
        == 2
    )
    err = capsys.readouterr().err
    assert "exactly one" in err


def test_driftgen_bad_spec_file(tmp_path, capsys):
    out = str(tmp_path / "ev.jsonl")
    missing = str(tmp_path / "missing.json")
    assert main(["driftgen", "--spec", missing, "--out", out]) == 2
    assert "bad spec" in capsys.readouterr().err


def test_driftgen_deeply_nested_spec_is_a_bad_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("[" * 200_000, encoding="utf-8")
    out = tmp_path / "ev.jsonl"
    assert main(["driftgen", "--spec", str(spec_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("driftgen: bad spec: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_driftgen_spec_with_a_weight_that_is_not_finite_is_a_bad_spec(
    tmp_path, capsys
):
    spec_path = tmp_path / "spec.json"
    out = tmp_path / "ev.jsonl"
    for weight in ("NaN", "Infinity"):
        spec_path.write_text(
            '{"kind": "sudden", "total_cases": 10, "pools": [{"variants": ['
            f'{{"activities": ["A", "B"], "weight": {weight}}}, '
            '{"activities": ["A", "C"], "weight": 1.0}]}]}',
            encoding="utf-8",
        )
        assert main(["driftgen", "--spec", str(spec_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("driftgen: bad spec: ") and "finite" in err, err
        assert not out.exists()


def test_driftgen_custom_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec = """
        {"kind": "sudden", "total_cases": 6, "seed": 1, "drift_position": 0.5,
         "pools": [{"variants": [{"activities": ["a", "b"]}]},
                   {"variants": [{"activities": ["a", "c"]}]}]}
        """
    out = str(tmp_path / "ev.jsonl")
    for bom in ("", "\ufeff"):  # a leading byte order mark is not JSON
        spec_path.write_text(bom + spec, encoding="utf-8")
        assert main(["driftgen", "--spec", str(spec_path), "--out", out]) == 0
        assert "events=12 cases=6" in capsys.readouterr().out


# --- config files ---------------------------------------------------------------


def test_load_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "# comment\ncount = 7\nmin-window-size = 3  # inline\n\nview=trace_variant\n",
        encoding="utf-8",
    )
    values = load_config_file(str(cfg))
    assert values == {"count": "7", "min_window_size": "3", "view": "trace_variant"}
    # a leading byte order mark is not part of the first key
    cfg.write_text("\ufeffcount = 7\n", encoding="utf-8")
    assert load_config_file(str(cfg)) == {"count": "7"}


def test_load_config_file_rejects_bad_line(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config_file(str(cfg))


def test_config_supplies_defaults(tmp_path, capsys):
    events = make_events("ABCABCABCABCAB")
    path = str(tmp_path / "ev.jsonl")
    write_events_jsonl(events, path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("strategy = count_tumbling\ncount = 7\n", encoding="utf-8")
    assert main(["analyze", path, "--config", str(cfg)]) == 0
    assert "windows=2" in capsys.readouterr().out


def test_flag_beats_config(tmp_path, capsys):
    events = make_events("ABCABCABCABCAB")
    path = str(tmp_path / "ev.jsonl")
    write_events_jsonl(events, path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("strategy = count_tumbling\ncount = 7\n", encoding="utf-8")
    # count 5 over 14 events: two full windows plus a flushed remainder
    assert main(["analyze", path, "--config", str(cfg), "--count", "5"]) == 0
    assert "windows=3" in capsys.readouterr().out


def test_config_boolean_coercion(tmp_path, capsys):
    path = tmp_path / "ev.jsonl"
    lines = [
        '{"case": "c", "activity": "A", "timestamp": 100}',
        '{"case": "c", "activity": "B", "timestamp": 50}',
        '{"case": "c", "activity": "C", "timestamp": 200}',
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tmp_path / "c.cfg"
    for verbose in ("", "verbose = off\n"):
        cfg.write_text("lenient = yes\n" + verbose, encoding="utf-8")
        assert main(["analyze", str(path), "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert "dropped=1" in out
        assert err == ""  # no window line: verbose stayed off
    cfg.write_text("verbose = maybe\n", encoding="utf-8")
    assert main(["analyze", str(path), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "expected a boolean for verbose, got 'maybe'" in err


def test_config_unknown_key_fails(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("no_such_flag = 1\n", encoding="utf-8")
    assert main(["analyze", WORKED, "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def must_give(parser):
    """What ``parser``'s command line must give: its positionals, required flags."""
    argv = []
    for action in parser._actions:
        if not action.option_strings:
            argv.append("ev.jsonl")
        elif action.required:
            argv += [action.option_strings[0], "out.jsonl"]
    return argv


HELP_CONFIG = ("help", "config")


@pytest.mark.parametrize(
    "command, key",
    [
        *((" ".join(cmd), key) for cmd in build_parsers()[1] for key in HELP_CONFIG),
        ("analyze", "file"),
        ("estimate", "file"),
        ("driftgen", "out"),
    ],
)
def test_config_cannot_set_help_config_or_what_argv_must_give(
    tmp_path, capsys, monkeypatch, command, key
):
    def run(*args):
        raise AssertionError("the command ran")

    for name in dir(coverwin.cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(coverwin.cli, name, run)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = 1\n", encoding="utf-8")
    parser = build_parsers()[1][tuple(command.split())]
    assert main([*command.split(), *must_give(parser), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"coverwin: config error: unknown config key: {key}\n"


# a value of each flag type that is no flag's default
FLAG_TEXTS = {int: "4", float: "0.25", _int_list: "5,10", None: "B"}


@pytest.mark.parametrize("command", [" ".join(cmd) for cmd in build_parsers()[1]])
def test_a_config_key_is_exactly_a_flag_argv_may_omit(tmp_path, command):
    """Each flag argv may omit, bar --help and --config, parses the same from
    ``key = text`` in a file as from argv (``yes`` for a store_true flag given),
    and a file sets no other dest of the parser."""
    words = command.split()
    parser = build_parsers()[1][tuple(words)]
    base = [*words, *must_give(parser)]
    cfg = tmp_path / "c.cfg"

    def parse(*argv):
        """Parse as ``main`` does: a first parse applies the file's values."""
        top = build_parsers()[0]
        top.parse_args([*base, *argv])
        return vars(top.parse_args([*base, *argv])) | {"config": None}

    default = parse()
    settable = set()
    for action in parser._actions:
        if not action.option_strings or action.required:
            continue
        if action.dest in HELP_CONFIG:
            continue
        settable.add(action.dest)
        flag = action.option_strings[-1]
        if isinstance(action, argparse._StoreTrueAction):
            text, argv = "yes", [flag]
        else:
            choices = [c for c in action.choices or () if c != action.default]
            text = choices[0] if choices else FLAG_TEXTS[action.type]
            argv = [flag, text]
        cfg.write_text(f"{action.dest} = {text}\n", encoding="utf-8")
        assert parse("--config", str(cfg)) == parse(*argv) != default, action.dest
    others = {a.dest for a in parser._actions} | set(parser._defaults)
    for dest in others - settable:
        cfg.write_text(f"{dest} = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^unknown config key: {dest}$"):
            parse("--config", str(cfg))


def test_bench_compare_takes_no_duration(tmp_path, capsys):
    """None of compare's three rules reads a duration, so it takes none."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", "compare", "--duration", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --duration 5" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text("duration = 5\n", encoding="utf-8")
    assert main(["bench", "compare", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "coverwin: config error: unknown config key: duration\n"


def test_config_bad_choice_fails(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("view = hexagram\n", encoding="utf-8")
    assert main(["analyze", WORKED, "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_missing_file_fails(capsys):
    assert main(["analyze", WORKED, "--config", "/nonexistent.cfg"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--config", "CFG", "--help"],
        ["analyze", "--help", "--config", "CFG"],
        ["bench", "drift", "--config=CFG", "-h"],
    ],
    ids=["config-then-help", "help-then-config", "bench-drift"],
)
def test_help_shows_config_file_defaults(tmp_path, capsys, argv):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("count = 7\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main([a.replace("CFG", str(cfg)) for a in argv])
    assert exc.value.code == 0
    assert "events per count_tumbling window (default: 7)" in capsys.readouterr().out


# --- bench modes -----------------------------------------------------------------


def test_bench_latency(tmp_path, capsys):
    code = main(
        ["bench", "latency", "--sizes", "5,10", "--trials", "2", "--outdir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "window_size=5" in out
    assert "latency_fit_r2=" in out
    rows = read_csv(str(tmp_path / "latency.csv"))
    assert rows[0] == ["window_size", "median_seconds", "p95_seconds", "min_seconds"]
    assert len(rows) == 3


def test_bench_latency_single_trial(tmp_path, capsys):
    argv = ["bench", "latency", "--sizes", "5,10", "--trials", "1"]
    assert main([*argv, "--outdir", str(tmp_path)]) == 0
    rows = read_csv(str(tmp_path / "latency.csv"))[1:]
    assert [row[0] for row in rows] == ["5", "10"]
    for _, median, p95, minimum in rows:
        assert median == p95 == minimum


@pytest.mark.parametrize(
    "flags, code, message",
    [
        (["--trials", "0"], 1, "coverwin: "),
        (["--sizes", ","], 2, "not a size list: ','"),
        (["--sizes", "100"], 2, "not a size list: '100'"),
        (["--sizes", "100,100"], 2, "not a size list: '100,100'"),
    ],
    ids=["no-trials", "no-sizes", "one-size", "repeated-size"],
)
def test_bench_latency_rejects_unusable_input(capsys, flags, code, message):
    # a size list without two distinct sizes is refused by the --sizes flag
    # itself (exit 2); a trial count below 1 when the run starts (exit 1)
    try:
        result = main(["bench", "latency", "--sizes", "5,10", *flags])
    except SystemExit as exc:
        result = exc.code
    assert result == code
    captured = capsys.readouterr()
    assert captured.out == ""
    if code == 1:
        assert captured.err.startswith(message)
    else:
        assert message in captured.err


def test_bench_latency_rejects_a_size_list_that_is_not_one(tmp_path, capsys):
    # a size below 1 is refused by the flag, not later by the window it sizes,
    # and a list without two distinct sizes before any size is timed
    for sizes in ("5,x", "0,10", ",", "100", "100,100"):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "latency", "--sizes", sizes])
        assert exc.value.code == 2
        assert f"not a size list: '{sizes}'" in capsys.readouterr().err
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"sizes = {sizes}\n", encoding="utf-8")
        assert main(["bench", "latency", "--config", str(cfg)]) == 2
        assert f"config error: not a size list: '{sizes}'" in capsys.readouterr().err


def test_bench_drift(tmp_path, capsys):
    code = main(["bench", "drift", "--scenario", "steady3", "--outdir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "drift_window=" in out
    assert "coefficient_of_variation=" in out
    sizes_rows = read_csv(str(tmp_path / "window_sizes.csv"))
    assert sizes_rows[0] == [
        "index",
        "size",
        "first_ts",
        "last_ts",
        "coverage",
        "threshold",
    ]
    report_rows = read_csv(str(tmp_path / "drift_report.csv"))
    assert report_rows[0][0] == "drift_window"
    assert len(report_rows) == 2


def test_bench_compare(tmp_path, capsys):
    code = main(
        ["bench", "compare", "--scenario", "steady3", "--outdir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "adaptive" in out
    assert "count_tumbling" in out
    assert "landmark" in out
    rows = read_csv(str(tmp_path / "comparison.csv"))
    assert rows[0] == ["strategy", "windows", "mean_precision", "mean_recall", "mean_f1"]
    assert [row[0] for row in rows[1:]] == ["adaptive", "count_tumbling", "landmark"]


SUDDEN_DRIFT_OUT = (
    "windows=265 drift_window=120 mean_relative_change=0.0458128 "
    "std_relative_change=0.0916689 coefficient_of_variation=0.14752 "
    "pre_mean=5 during_mean=6.9 post_mean=6.8\n"
)
SUDDEN_DRIFT_CSV = (
    "drift_window,mean_relative_change,std_relative_change,"
    "coefficient_of_variation,pre_mean,during_mean,post_mean\r\n"
    "120,0.0458128,0.0916689,0.14752,5,6.9,6.8\r\n"
)
SUDDEN_COMPARE_OUT = (
    "strategy         windows precision  recall      f1\n"
    "adaptive             177    1.0000  0.8770  0.9163\n"
    "count_tumbling        80    1.0000  0.7962  0.8755\n"
    "landmark             400    1.0000  0.6156  0.6877\n"
)
SUDDEN_COMPARE_CSV = (
    "strategy,windows,mean_precision,mean_recall,mean_f1\r\n"
    "adaptive,177,1,0.87701,0.916338\r\n"
    "count_tumbling,80,1,0.796154,0.875539\r\n"
    "landmark,400,1,0.615577,0.687739\r\n"
)


@pytest.mark.parametrize(
    "mode, stdout, csv_name, csv_text",
    [
        ("drift", SUDDEN_DRIFT_OUT, "drift_report.csv", SUDDEN_DRIFT_CSV),
        ("compare", SUDDEN_COMPARE_OUT, "comparison.csv", SUDDEN_COMPARE_CSV),
    ],
)
def test_bench_sudden_exact_output(tmp_path, capsys, mode, stdout, csv_name, csv_text):
    """The deterministic bench reports, byte for byte, on the sudden scenario."""
    argv = ["bench", mode, "--scenario", "sudden", "--outdir", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
    assert (tmp_path / csv_name).read_bytes().decode("utf-8") == csv_text


def test_bench_compare_help_shows_stricter_floor(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "compare", "--help"])
    assert exc.value.code == 0
    assert "default: 0.75" in capsys.readouterr().out


def test_readme_names_the_commands_the_parser_has():
    """Every command is named in README as ``coverwin <command> [<sub>]``,
    and every command README names, at a prompt or in a code span, exists."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    mentions = re.findall(r"(?m)(?:^|\$ |`)coverwin (bench [a-z]+|[a-z]+)", readme)
    assert {tuple(m.split()) for m in mentions} == set(build_parsers()[1])


STRATEGY_FLAGS = [
    ["--strategy", "adaptive"],
    ["--strategy", "count_tumbling", "--count", "20"],
    ["--strategy", "time_tumbling", "--duration", "30000"],
    ["--strategy", "landmark", "--landmark-activity", "A"],
]


@pytest.mark.parametrize("view", VIEW_KINDS)
@pytest.mark.parametrize(
    "scenario", ["sudden", "gradual", "recurring", "incremental", "steady3", "steady5"]
)
def test_analyze_outputs_are_the_reference_text(tmp_path, scenario, view):
    """analyze's files hold run_stream's records in their json.dumps and
    csv.writer form, for every strategy."""
    events, _ = driftgen.generate(driftgen.builtin_scenario(scenario))
    path = str(tmp_path / "events.jsonl")
    write_events_jsonl(events, path)
    windows_path, sizes_path = tmp_path / "win.jsonl", tmp_path / "sizes.csv"
    outputs = ["--windows-out", str(windows_path), "--sizes-csv", str(sizes_path)]
    for flags in STRATEGY_FLAGS:
        argv = ["analyze", path, "--view", view, *flags]
        strategy = _make_strategy(build_parsers()[0].parse_args(argv))
        records = run_stream(events, strategy)
        assert main(argv + outputs) == 0
        assert windows_path.read_text(encoding="utf-8") == "".join(
            dumps_window_record(r) + "\n" for r in records
        )
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows([SIZES_HEADER, *map(sizes_cells, records)])
        assert sizes_path.read_bytes().decode("utf-8") == expected.getvalue()


def test_the_file_path_reads_no_clock(tmp_path, capsys, monkeypatch):
    """analyze and estimate write the same bytes with every clock refused:
    their outputs are a function of the input file alone."""
    events, _ = driftgen.generate(driftgen.builtin_scenario("sudden"))
    path = str(tmp_path / "sudden.jsonl")
    write_events_jsonl(events, path)
    windows, sizes = tmp_path / "win.jsonl", tmp_path / "sizes.csv"
    outputs = ["--windows-out", str(windows), "--sizes-csv", str(sizes)]

    def run():
        assert main(["analyze", path, *outputs]) == 0
        assert main(["estimate", path]) == 0
        return capsys.readouterr(), windows.read_bytes(), sizes.read_bytes()

    unpatched = run()

    def refuse(*args):
        raise AssertionError("the file path read a clock")

    for name in ("perf_counter", "monotonic", "time", "sleep"):
        monkeypatch.setattr(time, name, refuse)
    assert run() == unpatched


# --- every flag reaches what it configures ---------------------------------------

# a non-default value for each rule and view flag
RULE_FLAGS = [
    *("--ct0", "0.8", "--sf0", "0.3", "--dr", "0.2", "--mt", "0.6"),
    *("--delta", "0.02", "--stagnation-window", "7", "--min-window-size", "9"),
    *("--count", "11", "--duration", "2222", "--landmark-activity", "B"),
]
VIEW_FLAGS = ["--view", "directly_follows", "--ngram", "3", "--case-timeout", "1234"]


def parse(argv):
    return build_parsers()[0].parse_args(argv)


def reaches_the_strategy(tmp_path, capsys):
    threshold = ThresholdState(ct=0.8, sf=0.3, dr=0.2, mt=0.6, delta=0.02, w=7)

    def check(windower, name, duration=2222):
        assert windower.view.config == ViewConfig("directly_follows", 3, 1234)
        if name == "adaptive":
            assert windower.threshold == threshold
            assert windower.min_window_size == 9
        else:
            assert windower.config == BaselineConfig(name, 11, duration, "B")

    for command in (["analyze", "x"], ["bench", "drift"], ["listen"]):
        for name in ("adaptive", *BASELINE_KINDS):
            argv = [*command, "--strategy", name, *RULE_FLAGS, *VIEW_FLAGS]
            check(_make_strategy(parse(argv)), name)
    # bench compare builds its three rules itself; each is checked as built,
    # before its run moves the threshold.  Neither baseline it runs reads a
    # duration, so it takes no --duration and they keep the default.
    built = []

    def capturing(args):
        windower = _make_strategy(args)
        check(windower, args.strategy, duration=BaselineConfig.duration)
        built.append(args.strategy)
        return windower

    i = RULE_FLAGS.index("--duration")
    rule_flags = RULE_FLAGS[:i] + RULE_FLAGS[i + 2 :]
    argv = ["bench", "compare", "--scenario", "steady3", *rule_flags, *VIEW_FLAGS]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coverwin.cli, "_make_strategy", capturing)
        assert main(argv) == 0
    assert built == ["adaptive", "count_tumbling", "landmark"]


def reaches_the_source(tmp_path, capsys):
    # by its extension alone, a .log file would be read as JSON lines
    for command in (["analyze"], ["estimate"]):
        args = parse([*command, "ev.log", "--format", "csv", "--lenient"])
        expected = SourceConfig(FILE_CSV, "ev.log", strict_order=False)
        assert _make_source(args) == expected


def reaches_the_drift_span(tmp_path, capsys):
    argv = ["bench", "drift", "--scenario", "sudden", "--before", "5", "--after", "8"]
    assert main(argv) == 0
    events, annotations = driftgen.generate(driftgen.builtin_scenario("sudden"))
    records = run_stream(events, _make_strategy(parse(["bench", "drift"])))
    drift_window = first_window_at_case(records, annotations.drift_case_indices[0])
    sizes = [r.size for r in records]
    report = drift_adaptation_stats(sizes, drift_window, before=5, after=8)
    assert capsys.readouterr().out == _line(windows=len(sizes), **asdict(report)) + "\n"


def reaches_the_output_format(tmp_path, capsys):
    out = tmp_path / "ev.txt"  # by its extension alone, JSON lines
    argv = ["driftgen", "--scenario", "steady3", "--out", str(out)]
    assert main([*argv, "--out-format", "csv"]) == 0
    assert out.read_bytes().startswith(b"case_id,activity,timestamp\r\n")


def reaches_the_annotations_path(tmp_path, capsys):
    out, sidecar = tmp_path / "ev.jsonl", tmp_path / "truth.json"
    argv = ["driftgen", "--scenario", "steady3", "--out", str(out)]
    assert main([*argv, "--annotations", str(sidecar)]) == 0
    assert "pool_per_case" in json.loads(sidecar.read_text(encoding="utf-8"))
    assert not os.path.exists(f"{out}.annotations.json")


@pytest.mark.parametrize(
    "check",
    [
        reaches_the_strategy,
        reaches_the_source,
        reaches_the_drift_span,
        reaches_the_output_format,
        reaches_the_annotations_path,
    ],
    ids=lambda check: check.__name__,
)
def test_every_flag_reaches_what_it_configures(tmp_path, capsys, check):
    """A non-default value of each flag reaches the object it configures.
    The golden digests run default flags, so they cannot see a flag dropped."""
    check(tmp_path, capsys)


# --- listen ----------------------------------------------------------------------


@contextlib.contextmanager
def listening(args):
    """Run ``cmd_listen(args)`` in a thread for the length of the block.

    Yields the ``StreamServer`` it built, the stop event, and a list that
    holds the exit code once the block ends.  Run with ``--port 0``: the
    server's ``address`` names the port the system gave it, so no other
    process can take that port in between.
    """
    servers = queue.SimpleQueue()
    built = coverwin.cli.StreamServer

    def capturing(*args, **kwargs):
        server = built(*args, **kwargs)
        servers.put(server)
        return server

    stop = threading.Event()
    result: list[int] = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coverwin.cli, "StreamServer", capturing)
        th = threading.Thread(target=lambda: result.append(cmd_listen(args, stop)))
        th.start()
        try:
            yield servers.get(timeout=5.0), stop, result
        finally:
            stop.set()
            th.join(timeout=5.0)
    assert not th.is_alive()


def connect(port, seconds=5.0):
    """A connection to a listener that may still be starting."""
    deadline = time.monotonic() + seconds
    while True:
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=0.2)
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)


def reply(sock):
    """The listener's next reply line on ``sock``."""
    sock.settimeout(5.0)
    line = b""
    while not line.endswith(b"\n"):
        chunk = sock.recv(4096)
        assert chunk, "the listener closed the connection"
        line += chunk
    return line


def drain(sock):
    """Send a line without the event fields and wait for its ERR reply.

    The listener answers a bad line only after it has windowed every earlier
    line of the connection, so the reply means that all of them are in.
    """
    sock.sendall(b'{"drain":true}\n')
    line = reply(sock)
    assert line.startswith(b"ERR missing_field"), line


def indices(text):
    """The window indices of ``text``'s stderr lines."""
    return [json.loads(line)["index"] for line in text.splitlines()]


def test_listen_ingests_until_stopped(tmp_path, capsys):
    windows_path = str(tmp_path / "win.jsonl")
    parser, _ = build_parsers()
    args = parser.parse_args(
        [
            "listen",
            "--port",
            "0",
            "--quiet",
            "--windows-out",
            windows_path,
            "--min-window-size",
            "5",
        ]
    )
    with listening(args) as (server, _, result):
        with connect(server.address[1]) as sock:
            payload = "".join(
                event_to_json_line(ev) + "\n"
                for ev in make_events("AAAAAA", case_id="c")
            )
            sock.sendall(payload.encode("utf-8"))
            drain(sock)
    assert result == [0]
    out = capsys.readouterr().out
    assert "events=6" in out
    assert "windows=2" in out
    with open(windows_path, encoding="utf-8") as fp:
        sizes = [parse_window_record(line).size for line in fp]
    assert sizes == [5, 1]


def test_listen_writes_each_record_as_it_closes(tmp_path, capsys):
    windows_path = tmp_path / "win.jsonl"
    args = build_parsers()[0].parse_args(
        ["listen", "--port", "0", "--windows-out", str(windows_path)]
    )
    with listening(args) as (server, _, _):
        deadline = time.monotonic() + 5.0
        with connect(server.address[1]) as sock:
            # the fifth event closes the first window (min window size 5)
            events = make_events("AAAAAA", case_id="c")
            payload = "".join(event_to_json_line(ev) + "\n" for ev in events)
            sock.sendall(payload.encode("utf-8"))
            # read while listen still runs: the record must not wait for close()
            live = ""
            while not live.endswith("\n"):
                assert time.monotonic() < deadline, "no record reached the file"
                time.sleep(0.02)
                live = windows_path.read_text(encoding="utf-8")
            # a read's window lines reach stderr before any reply to it
            drain(sock)
            err = capsys.readouterr().err.splitlines()
    assert [parse_window_record(line).size for line in live.splitlines()] == [5]
    windows = [json.loads(ln)["size"] for ln in err if ln.startswith("{")]
    assert windows == [5]


@pytest.mark.parametrize("bad", UNDECODABLE_LINES.values(), ids=UNDECODABLE_LINES)
def test_listen_answers_an_undecodable_line_and_keeps_the_connection(capsys, bad):
    """The events on both sides of the line are windowed, and the line
    gets its ERR reply in its place."""
    args = build_parsers()[0].parse_args(
        ["listen", "--port", "0", "--quiet"]
        + ["--strategy", "count_tumbling", "--count", "1"]
    )
    events = [Event("c", "A", t) for t in range(5)]
    lines = [event_to_json_line(ev) for ev in events]
    payload = "\n".join([*lines[:4], bad, lines[4]]) + "\n"
    with listening(args) as (server, _, result):
        with connect(server.address[1]) as sock:
            sock.sendall(payload.encode("utf-8"))
            line = reply(sock)
            assert line.startswith(b"ERR bad_json: invalid JSON: "), line
            drain(sock)
    assert result == [0]
    stats = server.stats
    assert (stats.received, stats.delivered, stats.dropped) == (5, 5, 0)
    assert stats.parse_errors == 2  # the undecodable line and the drain line
    out, err = capsys.readouterr()
    assert "events=5 dropped=0 windows=5" in out
    assert "Traceback" not in err


@pytest.mark.parametrize("port", [None, 70000, -1], ids=["taken", "70000", "-1"])
def test_listen_on_a_taken_port_leaves_the_outputs(tmp_path, capsys, port):
    flags, paths = outputs_holding_data(tmp_path)
    before = [p.read_bytes() for p in paths]
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = str(taken.getsockname()[1] if port is None else port)
        args = build_parsers()[0].parse_args(["listen", "--port", port, *flags])
        assert cmd_listen(args, threading.Event()) == 1
    assert f"listen: cannot bind 127.0.0.1:{port}: " in capsys.readouterr().err
    assert [p.read_bytes() for p in paths] == before


def opened_files(monkeypatch):
    """The files ``coverwin.cli`` opens from now on."""
    opened = []

    def recording_open(*args, **kwargs):
        fp = open(*args, **kwargs)
        opened.append(fp)
        return fp

    monkeypatch.setattr(coverwin.cli, "open", recording_open, raising=False)
    return opened


FULL_DEVICE_ERROR = "[Errno 28] No space left on device"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "failing, events, mid_run",
    [("--windows-out", 3000, True), ("--sizes-csv", 3000, True), ("--sizes-csv", 6, False)],
    # the sizes CSV is block-buffered: 6 events fill no buffer before close
    ids=["windows", "sizes", "sizes-at-shutdown"],
)
def test_listen_stops_cleanly_when_an_output_fails(
    tmp_path, capsys, monkeypatch, failing, events, mid_run
):
    """One message, the summary and exit 1, no traceback, every output
    closed, and no event windowed once an output has failed.  Every
    window counted in the summary has its stderr line, once, before the
    failure's, and its record in the output that did not fail."""
    other = "--sizes-csv" if failing == "--windows-out" else "--windows-out"
    other_path = tmp_path / "other"
    opened = opened_files(monkeypatch)
    args = build_parsers()[0].parse_args(
        ["listen", "--port", "0", "--strategy", "count_tumbling", "--count", "2"]
        + [failing, "/dev/full", other, str(other_path)]
    )
    late_ts = 10**12
    late = [Event("late", "L", late_ts + i) for i in range(4)]
    with listening(args) as (server, stop, result):
        port = server.address[1]
        with connect(port) as sock:
            lines = [event_to_json_line(Event("c", "A", t)) + "\n" for t in range(events)]
            sock.sendall("".join(lines).encode("utf-8"))
            drain(sock)  # the bad line is answered after the failure too
        # a failure during the run stops it as a signal would
        assert stop.wait(5.0 if mid_run else 0.2) == mid_run
        if mid_run:
            with contextlib.suppress(OSError):  # the listener may be gone already
                with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
                    sock.sendall(
                        "".join(event_to_json_line(e) + "\n" for e in late).encode()
                    )
                    drain(sock)
    assert result == [1]
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    *window_lines, last = [
        ln for ln in err.splitlines() if not ln.startswith("listening on ")
    ]
    assert last == f"listen: output failed: {FULL_DEVICE_ERROR}"
    summary = dict(pair.split("=") for pair in out.split())
    assert indices("\n".join(window_lines)) == list(range(int(summary["windows"])))
    delivered, dropped = int(summary["events"]), int(summary["dropped"])
    # every event is received; late ones count only if they came before stop()
    assert events <= delivered + dropped <= events + len(late), out
    if mid_run:
        assert delivered < events
    else:
        assert (delivered, dropped, summary["windows"]) == (events, 0, "3")
    healthy = other_path.read_text(encoding="utf-8")
    if failing == "--windows-out":
        # the first window fails to write, reaches the sizes CSV and is
        # counted; the next event finds the failure and is dropped
        assert delivered == 2
        sizes = [int(row[1]) for row in read_csv(str(other_path))[1:]]
    else:
        sizes = [parse_window_record(line).size for line in healthy.splitlines()]
    assert len(sizes) == int(summary["windows"]) and sum(sizes) == delivered
    assert str(late_ts) not in healthy
    assert len(opened) == 2 and all(fp.closed for fp in opened)


def test_listen_stops_cleanly_when_stderr_fails(tmp_path, capsys, monkeypatch):
    """stderr is an output too.  When a read's window lines fail to write,
    listen stops as for a failed file: every event sent is received and
    counted as delivered or dropped, each file holds every window the
    summary counts, the summary is on stdout, and the exit code is 1."""
    windows, sizes = tmp_path / "w.jsonl", tmp_path / "s.csv"
    args = build_parsers()[0].parse_args(
        ["listen", "--port", "0", "--strategy", "count_tumbling", "--count", "2"]
        + ["--windows-out", str(windows), "--sizes-csv", str(sizes)]
    )
    stderr = BrokenStderr(last="listening on ")
    monkeypatch.setattr(sys, "stderr", stderr)
    reads, per_read = 4, 5
    with listening(args) as (server, stop, result):
        # the listener takes connections before it prints that line
        deadline = time.monotonic() + 5.0
        while not stderr.broken:
            assert time.monotonic() < deadline, "no listening on line"
            time.sleep(0.01)
        with connect(server.address[1]) as sock:
            for r in range(reads):
                ts = range(r * per_read, (r + 1) * per_read)
                lines = [event_to_json_line(Event("c", "A", t)) + "\n" for t in ts]
                sock.sendall("".join(lines).encode("utf-8"))
                drain(sock)  # the next send is another read
        assert stop.wait(5.0)
    assert result == [1]
    # nothing after the "listening on" line: window lines, failure message
    assert stderr.text.splitlines(keepends=True)[-1].startswith("listening on ")
    stats = server.stats  # also counts what came after stop()
    assert stats.received == stats.delivered + stats.dropped == reads * per_read
    summary = dict(pair.split("=") for pair in capsys.readouterr().out.split())
    assert int(summary["events"]) == stats.delivered <= per_read
    lines = windows.read_text(encoding="utf-8").splitlines()
    records = [parse_window_record(line) for line in lines]
    held = [e.timestamp for r in records for e in r.events]
    assert held == list(range(stats.delivered))
    assert len(records) == int(summary["windows"])
    rows = read_csv(str(sizes))[1:]
    assert [int(row[1]) for row in rows] == [r.size for r in records]


class CountingStderr:
    """A stand-in for ``sys.stderr`` that keeps each ``write`` call's text."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_listen_run_as_a_program_stops_cleanly_on_sigterm(tmp_path):
    """``listen`` run as a program sets its own SIGTERM handler: the signal
    ends the run with exit 0, the summary, and every event in the file."""
    windows = tmp_path / "w.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "coverwin.cli", "listen", "--port", "0"]
        + ["--windows-out", str(windows)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=checkout_env(),
    )
    killer = threading.Timer(60.0, proc.kill)  # bounds every wait below
    killer.start()
    try:
        first = proc.stderr.readline()
        assert first.startswith("listening on "), first
        events = make_events("ABCABCABCABC", case_id="c")
        with connect(int(first.rsplit(":", 1)[1])) as sock:
            sock.sendall("".join(event_to_json_line(e) + "\n" for e in events).encode())
            drain(sock)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate()
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
    assert proc.returncode == 0, err
    assert f"events={len(events)} dropped=0 " in out
    assert "Traceback" not in err
    lines = windows.read_text(encoding="utf-8").splitlines()
    assert [e for line in lines for e in parse_window_record(line).events] == events


def test_listen_writes_the_window_lines_of_a_read_with_one_call(monkeypatch):
    args = build_parsers()[0].parse_args(
        ["listen", "--strategy", "count_tumbling", "--count", "2"]
    )
    events = [Event("c", "A", t) for t in range(9)]
    stderr = CountingStderr()
    monkeypatch.setattr(sys, "stderr", stderr)

    writer = _RecordWriter(_make_strategy(args), verbose=True, stop=threading.Event())
    server = StreamServer(writer.process, on_batch=writer.publish)
    try:
        assert server._deliver(events) == 0
    finally:
        server.stop()
    assert [indices(text) for text in stderr.writes] == [[0, 1, 2, 3]]

    # on_batch does not run for a read that on_event stopped partway: the
    # lines of its windows wait for the publish listen makes at shutdown
    stderr.writes.clear()
    writer = _RecordWriter(_make_strategy(args), verbose=True, stop=threading.Event())

    def stopping(event):
        writer.process(event)
        if event.timestamp == 4:
            raise StopServing

    server = StreamServer(stopping, on_batch=writer.publish)
    try:
        assert server._deliver(events) == 0
        assert server._deliver(events[5:]) == 0
    finally:
        stats = server.stop()
    assert stderr.writes == []
    assert (stats.delivered, stats.dropped) == (4, 9)
    writer.publish()
    assert [indices(text) for text in stderr.writes] == [[0, 1]]


@st.composite
def listen_sessions(draw):
    """An ordered JSONL stream, as 1-3 connections of randomly cut sends.

    Connections end at line ends; a send may end anywhere, also inside a
    line or inside a multi-byte character.
    """
    size = draw(st.integers(0, 80))  # drawn lists are mostly a few items long
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("c1", "c2", "c3")),
                st.sampled_from(("A", "B", "C", "D", "\u00c4", "\u5ba1\u6279")),
                st.one_of(st.integers(0, 3), st.integers(0, 900_000)),
            ),
            min_size=size,
            max_size=size,
        )
    )
    lines, ts = [], draw(st.integers(0, 2**41))
    for case_id, activity, gap in steps:
        ts += gap
        event = {"case": case_id, "activity": activity, "timestamp": ts}
        lines.append(json.dumps(event, ensure_ascii=False) + "\n")
    ends = draw(st.lists(st.integers(0, len(lines)), max_size=2))
    connections = []
    for lo, hi in zip([0, *sorted(ends)], [*sorted(ends), len(lines)]):
        data = "".join(lines[lo:hi]).encode("utf-8")
        cuts = sorted(set(draw(st.lists(st.integers(0, len(data)), max_size=8))))
        connections.append([data[a:b] for a, b in zip([0, *cuts], [*cuts, len(data)])])
    return "".join(lines), connections


def scenario_session(name):
    """A built-in scenario as a ``listen_sessions`` value: one connection,
    sent 8 KiB at a time."""
    events, _ = driftgen.generate(driftgen.builtin_scenario(name))
    text = "".join(event_to_json_line(e) + "\n" for e in events)
    data = text.encode("utf-8")
    return text, [[data[i : i + 8192] for i in range(0, len(data), 8192)]]


def outputs_of(argv, windows, sizes, run):
    """Windows bytes, sizes bytes, stdout and stderr of ``run(args)`` on
    ``argv``; stderr without ``listen``'s "listening on" line."""
    args = build_parsers()[0].parse_args(
        [*argv, "--windows-out", windows, "--sizes-csv", sizes]
    )
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert run(args) == 0
    err = stderr.getvalue().splitlines(keepends=True)
    err = "".join(ln for ln in err if not ln.startswith("listening on "))
    return Path(windows).read_bytes(), Path(sizes).read_bytes(), stdout.getvalue(), err


def listen_to(connections):
    """A ``run`` for ``outputs_of`` that feeds ``connections`` to ``cmd_listen``."""

    def run(args):
        with listening(args) as (server, _, result):
            for sends in connections:
                with connect(server.address[1]) as sock:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    for data in sends:
                        sock.sendall(data)
                        time.sleep(0.001)  # let the listener read each send
                    drain(sock)
        return result[0]

    return run


@pytest.mark.parametrize(
    "flags",
    [("--strategy", "adaptive"), ("--strategy", "count_tumbling", "--count", "20")],
)
# each listen run waits up to 0.05 s in stop() for serve_forever's poll
@settings(max_examples=3, deadline=None)
@given(session=listen_sessions())
@example(session=scenario_session("sudden"))
def test_listen_writes_what_analyze_writes_for_the_same_events(flags, session):
    """The same files, summary and window lines: listen's stderr matches
    analyze --verbose's."""
    text, connections = session
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "events.jsonl")
        Path(path).write_text(text, encoding="utf-8")
        windows, sizes = os.path.join(workdir, "w.jsonl"), os.path.join(workdir, "s.csv")
        analyze = ["analyze", path, "--verbose", *flags]
        analyzed = outputs_of(analyze, windows, sizes, lambda args: args.func(args))
        argv = ["listen", "--port", "0", *flags]
        assert outputs_of(argv, windows, sizes, listen_to(connections)) == analyzed


def test_console_script_is_installed(tmp_path):
    """The declared ``coverwin`` entry point runs as a command on ``PATH``.

    ``[project.scripts]`` in ``pyproject.toml`` must name a callable that
    loads as ``coverwin.cli.main``, and an executable named ``coverwin``,
    found on ``PATH``, must run ``driftgen`` through it.  The test writes
    the wrapper an installer generates for a console script itself instead
    of relying on an install: the suite runs from ``PYTHONPATH=src``
    without one, and a ``coverwin`` already on ``PATH`` may be a stale
    copy of some other checkout than the one under test.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fp:
        declared = tomllib.load(fp)["project"]["scripts"]["coverwin"]
    entry = EntryPoint(name="coverwin", value=declared, group="console_scripts")
    assert entry.load() is main

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    wrapper = bin_dir / "coverwin"
    wrapper.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n",
        encoding="utf-8",
    )
    wrapper.chmod(0o755)

    env = checkout_env()
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    exe = shutil.which("coverwin", path=env["PATH"])
    assert exe == str(wrapper), "console script not on PATH"

    out_file = str(tmp_path / "ev.jsonl")
    proc = subprocess.run(
        [exe, "driftgen", "--scenario", "steady3", "--out", out_file],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert "events=900" in proc.stdout


def run_python(code):
    """Run ``code`` in a fresh interpreter on this checkout; returns its stdout."""
    env = checkout_env()
    code += (
        "\nimport coverwin\n"
        f"assert coverwin.__file__.startswith({SRC_DIR!r}), coverwin.__file__\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_command_only_modules_unloaded():
    """analyze starts without importing what only other commands run: bench,
    driftgen, the TCP handler with socketserver, and signal."""
    out = run_python(
        "import sys\n"
        "import coverwin.cli\n"
        "only = ['coverwin.bench', 'coverwin.driftgen', 'coverwin.tcp', 'socketserver', 'signal']\n"
        "print([name for name in only if name in sys.modules])\n"
    )
    assert out.strip() == "[]"


def test_package_import_loads_no_submodule():
    out = run_python(
        "import sys\n"
        "import coverwin\n"
        "print(sorted(name for name in sys.modules if name.startswith('coverwin.')))\n"
    )
    assert out.strip() == "[]"


def test_star_import_binds_each_name_to_its_home_module():
    namespace = {}
    exec("from coverwin import *", namespace)
    for name in coverwin.__all__:
        value = namespace[name]
        if name == "__version__":
            assert value == coverwin.__version__
            continue
        assert value.__module__.startswith("coverwin."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError):
        coverwin.no_such_name


def test_coverwin_imports_only_the_standard_library():
    """coverwin has no runtime dependency: all of it loads only stdlib modules.

    Compared with a snapshot taken before the import, because ``site`` may
    already have loaded third-party modules.
    """
    out = run_python(
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import coverwin\n"
        "for module in pkgutil.iter_modules(coverwin.__path__):\n"
        "    importlib.import_module('coverwin.' + module.name)\n"
        "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - {'coverwin'} - sys.stdlib_module_names))\n"
    )
    assert out.strip() == "[]"


def test_bench_commands_run_without_numpy():
    out = run_python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from coverwin.cli import main\n"
        "codes = [\n"
        "    main(['bench', 'latency', '--sizes', '5,10', '--trials', '2']),\n"
        "    main(['bench', 'drift', '--scenario', 'steady3']),\n"
        "    main(['bench', 'compare', '--scenario', 'steady3']),\n"
        "]\n"
        "print(codes)\n"
    )
    assert out.splitlines()[-1] == "[0, 0, 0]"
