"""Parsing, replay, serialization round-trips, and the TCP listener."""

from __future__ import annotations

import csv
import importlib
import io
import json
import socket
import struct
import sys
import threading
import time
import tracemalloc
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from coverwin import (
    Event,
    OrderingError,
    ParseError,
    SourceConfig,
    StopServing,
    StreamServer,
    parse_event,
    replay,
    stream_io,
)
from coverwin.cli import SCENARIO_NAMES, main
from coverwin.driftgen import builtin_scenario, generate
from coverwin.stream_io import (
    FILE_CSV,
    FILE_JSONL,
    _COMPACT_EVENT,
    _MAX_LINE,
    _READ_SIZE,
    ServerStats,
    _parse_timestamp,
    _split_reads,
    event_to_json_line,
    window_record_to_json,
    write_events_csv,
    write_events_jsonl,
    write_metrics_csv,
)
from coverwin.tcp import _StreamHandler
from coverwin.views import SEPARATOR
from coverwin.window import WindowRecord

from conftest import dumps_window_record, make_events, parse_window_record


# --- parsing -----------------------------------------------------------------


def test_parse_jsonl_event():
    ev = parse_event('{"case": "c1", "activity": "pay", "timestamp": 42}')
    assert ev == Event("c1", "pay", 42)


def test_parse_jsonl_coerces_int_case_and_strips():
    ev = parse_event('{"case": 7, "activity": "  ship ", "timestamp": 1}')
    assert ev == Event("7", "ship", 1)


def test_parse_csv_row():
    ev = parse_event("c1,pay,42", fmt="csv")
    assert ev == Event("c1", "pay", 42)


def test_parse_csv_quoted_comma():
    ev = parse_event('c1,"check, recheck",42', fmt="csv")
    assert ev.activity == "check, recheck"


PARSE_ERRORS = [
    ("not json", "bad_json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[1,2]", "bad_json", "event line must be a JSON object"),
    (
        '{"activity": "a", "timestamp": 1}',
        "missing_field",
        "need keys case, activity, timestamp",
    ),
    (
        '{"case": "", "activity": "a", "timestamp": 1}',
        "missing_field",
        "case id missing or empty",
    ),
    (
        '{"case": "c", "activity": " ", "timestamp": 1}',
        "missing_field",
        "activity missing or empty",
    ),
    (
        '{"case": "c", "activity": "a|b", "timestamp": 1}',
        "reserved_separator",
        "activity must not contain '|': 'a|b'",
    ),
    (
        '{"case": "c", "activity": "a", "timestamp": true}',
        "bad_timestamp",
        "bad timestamp: True",
    ),
    (
        '{"case": "c", "activity": "a", "timestamp": 1.5}',
        "bad_timestamp",
        "timestamp not whole ms: 1.5",
    ),
    (
        '{"case": "c", "activity": "a", "timestamp": "soon"}',
        "bad_timestamp",
        "bad timestamp: 'soon'",
    ),
    # JSON values of a type no timestamp form has
    (
        '{"case": "c", "activity": "a", "timestamp": null}',
        "bad_timestamp",
        "bad timestamp: None",
    ),
    (
        '{"case": "c", "activity": "a", "timestamp": []}',
        "bad_timestamp",
        "bad timestamp: []",
    ),
    (
        '{"case": "c", "activity": "a", "timestamp": {}}',
        "bad_timestamp",
        "bad timestamp: {}",
    ),
]


# each row is named by its line and its code
@pytest.mark.parametrize(
    "line,code,message",
    PARSE_ERRORS,
    ids=[f"{line}-{code}" for line, code, _ in PARSE_ERRORS],
)
def test_parse_jsonl_errors(line, code, message):
    with pytest.raises(ParseError) as err:
        parse_event(line)
    assert err.value.code == code
    assert str(err.value) == message


def test_parse_csv_wrong_column_count():
    with pytest.raises(ParseError) as err:
        parse_event("a,b", fmt="csv")
    assert err.value.code == "bad_csv"


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse_event("x", fmt="xml")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_event("nope", line_no=17)
    assert err.value.line_no == 17
    assert "line 17" in str(err.value)


@pytest.mark.parametrize(
    "value,expected",
    [
        (1413976541000, 1413976541000),
        (2.0, 2),
        ('"123"', 123),
        ('"2014-10-22T11:15:41Z"', 1413976541000),
        ('"2014-10-22T11:15:41+00:00"', 1413976541000),
        ('"2014-10-22T11:15:41"', 1413976541000),  # naive means UTC
        ('"2014-10-22T13:15:41+02:00"', 1413976541000),
        ('"2014-10-22T11:15:41.250Z"', 1413976541250),
    ],
)
def test_timestamp_forms(value, expected):
    if isinstance(value, str):
        line = f'{{"case": "c", "activity": "a", "timestamp": {value}}}'
    else:
        line = f'{{"case": "c", "activity": "a", "timestamp": {value!r}}}'
    assert parse_event(line).timestamp == expected


def reference_event(case, activity, timestamp, line_no):
    """The event parse_event must build from three decoded fields, by its
    rules written out apart from its own validator: the case, then the
    activity, then the separator, then the timestamp."""
    if isinstance(case, int) and not isinstance(case, bool):
        case = str(case)
    if not isinstance(case, str) or not case.strip():
        raise ParseError("missing_field", "case id missing or empty", line_no)
    if not isinstance(activity, str) or not activity.strip():
        raise ParseError("missing_field", "activity missing or empty", line_no)
    activity = activity.strip()
    if SEPARATOR in activity:
        raise ParseError(
            "reserved_separator",
            f"activity must not contain {SEPARATOR!r}: {activity!r}",
            line_no,
        )
    if isinstance(timestamp, (float, str)):
        timestamp = _parse_timestamp(timestamp, line_no)
    elif isinstance(timestamp, bool) or not isinstance(timestamp, int):
        raise ParseError("bad_timestamp", f"bad timestamp: {timestamp!r}", line_no)
    return Event(case.strip(), activity, timestamp)


def reference_parse_jsonl(line, line_no=None):
    """parse_event(line, "jsonl") as json.loads alone gives it, without
    the compact-line match ahead of it."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ParseError("bad_json", f"invalid JSON: {exc}", line_no) from None
    if not isinstance(obj, dict):
        raise ParseError("bad_json", "event line must be a JSON object", line_no)
    if not {"case", "activity", "timestamp"} <= obj.keys():
        raise ParseError("missing_field", "need keys case, activity, timestamp", line_no)
    return reference_event(obj["case"], obj["activity"], obj["timestamp"], line_no)


def reference_parse_csv(line, line_no=None):
    """parse_event(line, "csv") as csv.reader and reference_event give it."""
    try:
        row = next(csv.reader([line]))
    except csv.Error as exc:
        raise ParseError("bad_csv", str(exc), line_no) from None
    if len(row) != 3:
        raise ParseError("bad_csv", f"expected 3 columns, got {len(row)}", line_no)
    return reference_event(*row, line_no)


def compact_line(case, activity, timestamp):
    """An event line in the compact form ``event_to_json_line`` writes,
    with each value's JSON text as given."""
    return f'{{"case":{case},"activity":{activity},"timestamp":{timestamp}}}'


def parse_outcome(parse, line, line_no):
    try:
        return parse(line, line_no=line_no)
    except Exception as exc:  # ParseError, or whatever json.loads lets through
        return (type(exc), getattr(exc, "code", None), str(exc))


field_text = st.one_of(
    st.sampled_from(["", " ", "a", " a ", "a|b", "\u2028", "7", "\x85b"]),
    st.text(alphabet=st.sampled_from(" \t\n\u2028\x85ab|7:-TZ"), max_size=8),
)
field_values = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats(),
    st.none(),
    field_text,
    st.text(max_size=6),
    st.sampled_from(["2014-10-22T11:15:41Z", " 42 ", "2014-10-22T11:15:41.250+02:00"]),
)
event_keys = ["case", "activity", "timestamp"]
event_objects = st.one_of(
    st.fixed_dictionaries(
        {
            "case": field_text,
            "activity": field_text,
            "timestamp": st.integers() | st.booleans(),
        }
    ),
    st.fixed_dictionaries(
        dict.fromkeys(event_keys, field_values), optional={"extra": field_values}
    ),
    st.dictionaries(st.sampled_from(event_keys + ["extra"]), field_values),
)
# compact-shaped lines with one odd part: strings with quotes, escapes or
# raw control characters, or a timestamp with non-ASCII digits, each of
# which the compact match must leave to the JSON decoder
odd_text = st.text(alphabet=st.sampled_from('ab "\\\x00\x1f\t\u00e4'), max_size=6)
plain_strings = st.sampled_from(['"c"', '"a"', '" a "', '"\u00e4"', '"a|b"', '""'])
odd_strings = st.one_of(
    st.builds(json.dumps, odd_text, ensure_ascii=st.booleans()),
    odd_text.map(lambda text: f'"{text}"'),  # raw, often no valid JSON
)
plain_timestamps = st.integers(-(10**20), 10**20).map(str)
odd_timestamps = st.text(
    alphabet=st.sampled_from("-0123\u0661\u0662\uff13"), min_size=1, max_size=5
)
compact_lines = st.builds(
    lambda parts, end: compact_line(*parts) + end,
    st.one_of(
        st.tuples(odd_strings, plain_strings, plain_timestamps),
        st.tuples(plain_strings, odd_strings, plain_timestamps),
        st.tuples(plain_strings, plain_strings, odd_timestamps),
        st.tuples(odd_strings, odd_strings, odd_timestamps),
    ),
    st.sampled_from(["", "\n"]),
)
json_bodies = st.one_of(
    st.builds(
        json.dumps,
        event_objects,
        ensure_ascii=st.booleans(),
        separators=st.sampled_from([(",", ":"), (", ", ": ")]),
    ),
    st.one_of(  # nested, so that half of the bodies are event objects
        st.builds(json.dumps, field_values),
        st.builds(json.dumps, st.lists(field_values, max_size=3)),
        st.text(max_size=20),
    ),
)
affixes = st.sampled_from(["", " ", "\n", "\r\n", "\ufeff", "\x0b", ",1", "\t", "}", "\n\n"])
lines = st.one_of(
    compact_lines,
    st.builds(lambda *parts: "".join(parts), affixes, json_bodies, affixes),
)


@settings(max_examples=500, deadline=None)
@given(line=lines, line_no=st.one_of(st.none(), st.integers(1, 10**6)))
def test_parse_jsonl_fast_path_matches_json_loads(line, line_no):
    assert parse_outcome(parse_event, line, line_no) == parse_outcome(
        reference_parse_jsonl, line, line_no
    )


@pytest.mark.parametrize(
    "line",
    [
        "\n",
        "",
        " ",
        "\ufeff{}",
        '{"case":"c","activity":"a","timestamp":1}\n\n',
        '{"case":" ","activity":"a","timestamp":1}',
        '{"case":"c","activity":"\\u2028","timestamp":1}\n',
        '{"case":" c ","activity":" a|b ","timestamp":1}',
        '{"case":"c","activity":"a","timestamp":true}',
        '{"case":"c","activity":"a","timestamp":1.0}',
        # the compact form's timestamp: sign, leading zero, digit count, digit kind
        pytest.param(compact_line('"c"', '"a"', "-0"), id="ts-minus-zero"),
        pytest.param(compact_line('"c"', '"a"', "01"), id="ts-leading-zero"),
        pytest.param(compact_line('"c"', '"a"', "9" * 18), id="ts-18-digits"),
        pytest.param(compact_line('"c"', '"a"', "-" + "9" * 18), id="ts-minus-18"),
        pytest.param(compact_line('"c"', '"a"', "1" * 19), id="ts-19-digits"),
        pytest.param(compact_line('"c"', '"a"', "1" * 4300), id="ts-4300-digits"),
        pytest.param(compact_line('"c"', '"a"', "1" * 4301), id="ts-4301-digits"),
        pytest.param(compact_line('"c"', '"a"', "\u0661\u0662"), id="ts-arabic-indic"),
        pytest.param(compact_line('"c"', '"a"', "1\u0662"), id="ts-arabic-indic-tail"),
        # its strings: escapes, raw control and non-ASCII characters, padding, separator
        pytest.param(compact_line('"c\\u00e4"', '"a"', "1"), id="str-escape-case"),
        pytest.param(compact_line('"c"', '"a\\n"', "1"), id="str-escape-activity"),
        pytest.param(compact_line('"c\x1f"', '"a"', "1"), id="str-raw-x1f-case"),
        pytest.param(compact_line('"c"', '"a\x1fb"', "1"), id="str-raw-x1f"),
        pytest.param(compact_line('"c"', '"\x00"', "1"), id="str-raw-nul"),
        pytest.param(compact_line('"c\u00e4"', '"\u5ba1\u6279"', "1"), id="str-utf"),
        pytest.param(compact_line('"\xa0c\xa0"', '"\x85a\x85"', "1"), id="str-padded"),
        pytest.param(compact_line('"\xa0"', '"a"', "1"), id="str-nbsp-case"),
        pytest.param(compact_line('"c"', '"\x85"', "1"), id="str-nel-activity"),
        pytest.param(compact_line('"c"', '"a|b"', "1"), id="str-separator"),
        # its shape: the optional newline, a repeated key, a CRLF ending, key order
        pytest.param(compact_line('"c"', '"a"', "1") + "\n", id="shape-newline"),
        pytest.param(
            '{"case":"c","case":"d","activity":"a","timestamp":1}', id="shape-dup-key"
        ),
        pytest.param(compact_line('"c"', '"a"', "1") + "\r\n", id="shape-crlf"),
        pytest.param('{"activity":"a","case":"c","timestamp":1}', id="shape-key-order"),
        # its fields: case ids around int()'s digit limit; nesting too deep to decode
        pytest.param(compact_line("7" * 4300, '"a"', "1"), id="case-4300-digits"),
        pytest.param(compact_line("7" * 5000, '"a"', "1"), id="case-5000-digits"),
        pytest.param("[" * 5000, id="deep-nesting"),
        # the order of the checks: case, activity, separator, timestamp
        pytest.param(compact_line('""', '"a|b"', "1"), id="order-case-first"),
        pytest.param(compact_line("7", '" "', "1"), id="order-int-case-then-activity"),
        pytest.param(compact_line("true", '"a|b"', "1"), id="order-bool-case"),
        pytest.param(compact_line('"c"', '"a|b"', "true"), id="order-separator-first"),
    ],
)
def test_parse_jsonl_edge_lines_match_json_loads(line):
    assert parse_outcome(parse_event, line, None) == parse_outcome(
        reference_parse_jsonl, line, None
    )


def csv_line(fields):
    """The row ``csv.writer`` writes for ``fields``, without its line end."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue().removesuffix("\r\n")


csv_fields = st.one_of(
    st.sampled_from(["", " ", "c", " c ", "|", "a|b", " a|b ", '"', 'a"b', ","]),
    st.sampled_from(["a,b", " 42 ", "1.5", "soon", "2014-10-22T11:15:41Z"]),
    st.integers(-(2**70), 2**70),
    st.text(alphabet=st.sampled_from(' \t"|,ab7:-TZ\u00e4'), max_size=8),
)
csv_rows = st.one_of(
    st.lists(csv_fields, min_size=3, max_size=3), st.lists(csv_fields, max_size=5)
)


@settings(max_examples=500, deadline=None)
@given(fields=csv_rows, line_no=st.one_of(st.none(), st.integers(1, 10**6)))
def test_parse_csv_matches_csv_reader(fields, line_no):
    """A CSV row gives the event or the error that csv.reader and the
    reference rules give it."""
    line = csv_line(fields)
    assert parse_outcome(partial(parse_event, fmt="csv"), line, line_no) == parse_outcome(
        reference_parse_csv, line, line_no
    )


# lines csv.writer never writes: a lone \r outside quotes and a field over
# csv.field_size_limit() make csv.reader raise; NUL did before Python 3.11
RAW_CSV_LINES = [
    "c1,a\rb,1",
    "c1,pay\r,1",
    "c1,a\nb,1",
    "\r",
    'c1,"a\rb",1',
    "c1,a\x00b,1",
    'c1,"pay,1',
    "c1," + "a" * (csv.field_size_limit() + 1) + ",1",
    'c1,"' + "a" * (csv.field_size_limit() + 1) + '",1',
]


@pytest.mark.parametrize("line", RAW_CSV_LINES, ids=range(len(RAW_CSV_LINES)))
def test_parse_csv_raw_lines_match_the_reference(line):
    """A line csv.reader refuses is a ``bad_csv`` ParseError, like any other
    bad row, never csv's own exception."""
    got = parse_outcome(partial(parse_event, fmt="csv"), line, 7)
    assert got == parse_outcome(reference_parse_csv, line, 7)
    assert isinstance(got, Event) or got[0] is ParseError


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_written_event_lines_take_the_compact_path(tmp_path, monkeypatch):
    """Every line ``write_events_jsonl`` writes for the built-in scenarios
    and the benchmark's workloads is one ``parse_event`` reads with its
    compact-line match, so a change to ``event_to_json_line``'s format
    cannot quietly move ``driftgen`` output and benchmark inputs onto the
    slower general path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    streams = [generate(builtin_scenario(name))[0] for name in SCENARIO_NAMES]
    streams += [w.events(seed=1) for w in workloads.WORKLOADS.values()]
    path = tmp_path / "ev.jsonl"
    for events in streams:
        write_events_jsonl(events, str(path))
        with open(path, encoding="utf-8", newline="") as fp:
            off_path = [line for line in fp if not _COMPACT_EVENT(line)]
        assert off_path == []


# --- replay ------------------------------------------------------------------


def test_source_config_validation():
    with pytest.raises(ValueError):
        SourceConfig("nope")
    with pytest.raises(ValueError):
        SourceConfig(FILE_JSONL, path="")


def test_replay_jsonl_in_file_order(tmp_path):
    events = make_events("ABC")
    path = tmp_path / "ev.jsonl"
    text = "".join(event_to_json_line(ev) + "\n" for ev in events)
    # a leading UTF-8 byte order mark, as some editors write, is not part of line 1
    for bom in ("", "\ufeff"):
        path.write_text(bom + text, encoding="utf-8")
        got = []
        stats = replay(SourceConfig(FILE_JSONL, str(path)), got.append)
        assert got == events
        assert stats.delivered == 3
        assert stats.dropped == 0


def test_replay_skips_blank_lines(tmp_path):
    path = tmp_path / "ev.jsonl"
    lines = [event_to_json_line(ev) for ev in make_events("AB")]
    path.write_text(lines[0] + "\n\n  \n" + lines[1] + "\n", encoding="utf-8")
    got = []
    replay(SourceConfig(FILE_JSONL, str(path)), got.append)
    assert [ev.activity for ev in got] == ["A", "B"]


def test_replay_csv_requires_header(tmp_path):
    path = tmp_path / "ev.csv"
    path.write_text("c1,pay,1\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        replay(SourceConfig(FILE_CSV, str(path)), lambda ev: None)
    assert err.value.code == "missing_header"


def test_replay_csv_header_is_case_insensitive(tmp_path):
    path = tmp_path / "ev.csv"
    for bom in ("", "\ufeff"):  # a leading byte order mark is not in the header
        path.write_text(bom + "Case_ID,ACTIVITY,Timestamp\nc1,pay,1\n", "utf-8")
        got = []
        replay(SourceConfig(FILE_CSV, str(path)), got.append)
        assert got == [Event("c1", "pay", 1)]


def test_replay_strict_rejects_regression(tmp_path):
    events = [Event("c", "A", 100), Event("c", "B", 50)]
    path = str(tmp_path / "ev.jsonl")
    write_events_jsonl(events, path)
    with pytest.raises(OrderingError):
        replay(SourceConfig(FILE_JSONL, path), lambda ev: None)


def test_replay_lenient_drops_regression(tmp_path):
    events = [Event("c", "A", 100), Event("c", "B", 50), Event("c", "C", 100)]
    path = str(tmp_path / "ev.jsonl")
    write_events_jsonl(events, path)
    got = []
    stats = replay(SourceConfig(FILE_JSONL, path, strict_order=False), got.append)
    assert [ev.activity for ev in got] == ["A", "C"]
    assert stats.dropped == 1
    assert stats.delivered == 2


def test_replay_allows_equal_timestamps(tmp_path):
    events = [Event("c", "A", 100), Event("d", "B", 100)]
    path = str(tmp_path / "ev.jsonl")
    write_events_jsonl(events, path)
    got = []
    replay(SourceConfig(FILE_JSONL, path), got.append)
    assert len(got) == 2


# --- serialization round-trips ------------------------------------------------


def test_events_jsonl_round_trip(tmp_path):
    events = make_events("ABCAB") + [Event("z", "end", 99_000)]
    path = str(tmp_path / "ev.jsonl")
    write_events_jsonl(events, path)
    got = []
    replay(SourceConfig(FILE_JSONL, path), got.append)
    assert got == events


def test_events_csv_round_trip(tmp_path):
    events = make_events("ABCAB") + [Event("z", "with, comma ok", 99_000)]
    path = str(tmp_path / "ev.csv")
    write_events_csv(events, path)
    got = []
    replay(SourceConfig(FILE_CSV, path), got.append)
    assert got == events


def test_window_record_round_trip():
    record = WindowRecord(
        index=3,
        events=tuple(make_events("ABA")),
        size=3,
        first_ts=1000,
        last_ts=3000,
        coverage=37 / 45,
        completeness=5 / 6,
        chao1=6.0,
        threshold=0.858,
        force_closed=True,
    )
    line = window_record_to_json(record)
    assert parse_window_record(line) == record


def test_window_record_key_order_is_stable():
    record = WindowRecord(
        index=0,
        events=(Event("c", "A", 1),),
        size=1,
        first_ts=1,
        last_ts=1,
        coverage=0.0,
        completeness=1.0,
        chao1=1.0,
        threshold=0.9,
    )
    line = window_record_to_json(record)
    keys = list(json.loads(line).keys())
    assert keys == [
        "index",
        "size",
        "first_ts",
        "last_ts",
        "coverage",
        "completeness",
        "chao1",
        "threshold",
        "force_closed",
        "events",
    ]


# quotes, backslashes, control and non-ASCII characters, astral ones and
# lone surrogates, each of which json escapes its own way
awkward_text = st.text(
    st.one_of(
        st.characters(blacklist_categories=()),
        st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600/'),
    ),
    max_size=12,
)
big_ints = st.integers(-(2**70), 2**70)
# a window record's floats are finite (see WindowRecord)
record_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e308]),
)
window_records = st.builds(
    WindowRecord,
    index=big_ints,
    events=st.lists(
        st.builds(Event, awkward_text, awkward_text, big_ints), max_size=5
    ).map(tuple),
    size=big_ints,
    first_ts=big_ints,
    last_ts=big_ints,
    coverage=record_floats,
    completeness=record_floats,
    chao1=record_floats,
    threshold=record_floats,
    force_closed=st.booleans(),
)


@settings(max_examples=500, deadline=None)
@given(record=window_records)
def test_window_record_to_json_is_the_json_dumps_text(record):
    line = window_record_to_json(record)
    assert line == dumps_window_record(record)
    # json reads an escaped high + low surrogate back as one character,
    # so text holding surrogates is not expected to come back as it was
    text = "".join(e.case_id + e.activity for e in record.events)
    if not any("\ud800" <= ch <= "\udfff" for ch in text):
        assert parse_window_record(line) == record


def test_write_metrics_csv(tmp_path):
    path = str(tmp_path / "m.csv")
    write_metrics_csv(path, ("a", "b"), [(1, 2.5), (3, 4.5)])
    with open(path, newline="") as fp:
        rows = list(csv.reader(fp))
    assert rows == [["a", "b"], ["1", "2.5"], ["3", "4.5"]]


def test_write_metrics_csv_header_only(tmp_path):
    path = str(tmp_path / "m.csv")
    write_metrics_csv(path, ("x",), [])
    with open(path, newline="") as fp:
        assert list(csv.reader(fp)) == [["x"]]


# --- TCP listener --------------------------------------------------------------


def line_client(address):
    sock = socket.create_connection(address, timeout=5.0)
    sock.settimeout(5.0)
    return sock, sock.makefile("rw", encoding="utf-8", newline="\n")


def test_server_ingests_and_reports_errors():
    got = []
    server = StreamServer(got.append, port=0, strict_order=True)
    server.start()
    try:
        sock, pipe = line_client(server.address)
        pipe.write(event_to_json_line(Event("c", "A", 100)) + "\n")
        pipe.write("garbage\n")
        pipe.flush()
        reply = pipe.readline().strip()
        assert reply.startswith("ERR bad_json:")
        # regression: rejected at the door with an error line
        pipe.write(event_to_json_line(Event("c", "B", 50)) + "\n")
        pipe.flush()
        assert pipe.readline().strip().startswith("ERR out_of_order:")
        pipe.write(event_to_json_line(Event("c", "C", 200)) + "\n")
        pipe.write("garbage again\n")
        pipe.flush()
        assert pipe.readline().strip().startswith("ERR bad_json:")
        sock.close()
    finally:
        stats = server.stop()
    assert [ev.activity for ev in got] == ["A", "C"]
    assert stats.received == 3
    assert stats.delivered == 2
    assert stats.dropped == 1
    assert stats.parse_errors == 2


def test_server_lenient_drops_silently():
    got = []
    server = StreamServer(got.append, port=0, strict_order=False)
    server.start()
    try:
        sock, pipe = line_client(server.address)
        pipe.write(event_to_json_line(Event("c", "A", 100)) + "\n")
        pipe.write(event_to_json_line(Event("c", "B", 50)) + "\n")
        pipe.write("sync\n")  # bad line forces a reply we can wait on
        pipe.flush()
        assert pipe.readline().strip().startswith("ERR bad_json:")
        sock.close()
    finally:
        stats = server.stop()
    assert [ev.activity for ev in got] == ["A"]
    assert stats.dropped == 1
    assert stats.parse_errors == 1


def test_server_orders_across_connections():
    got = []
    server = StreamServer(got.append, port=0)
    server.start()
    try:
        s1, p1 = line_client(server.address)
        s2, p2 = line_client(server.address)
        p1.write(event_to_json_line(Event("a", "A", 10)) + "\n")
        p1.flush()
        p1.write("sync\n")
        p1.flush()
        p1.readline()
        p2.write(event_to_json_line(Event("b", "B", 20)) + "\n")
        p2.write("sync\n")
        p2.flush()
        p2.readline()
        s1.close()
        s2.close()
    finally:
        stats = server.stop()
    assert [ev.activity for ev in got] == ["A", "B"]
    assert stats.delivered == 2


# --- batched TCP ingest ----------------------------------------------------------


def chunked_reader(chunks):
    """A ``read(n)`` over fixed chunks, then b"" for EOF."""
    pending = iter(chunks)
    return lambda _size: next(pending, b"")


BOM = b"\xef\xbb\xbf"
line_bytes = st.lists(
    st.sampled_from(
        [b"\n", b"\r\n", b"a", b" ", b"\x0b", b"\xe2\x82", b"\xac", b"\xff", "é".encode(), BOM]
    ),
    max_size=40,
).map(b"".join)


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(line_bytes, st.binary(max_size=60)), cuts=st.lists(st.integers(0, 60)))
def test_split_reads_gives_the_lines_of_line_iteration(data, cuts):
    bounds = sorted({0, len(data), *(c for c in cuts if c < len(data))})
    chunks = [data[a:b] for a, b in zip(bounds, bounds[1:])]
    got = [line for lines in _split_reads(chunked_reader(chunks)) for line in lines]
    # blank lines come too, as "", so that a file's lines can be numbered
    raw_lines = list(io.BytesIO(data))
    if raw_lines:  # a byte order mark is dropped from the first line
        raw_lines[0] = raw_lines[0].removeprefix(BOM)
    want = [raw.decode("utf-8", errors="replace").strip() for raw in raw_lines]
    assert got == want


class SizedReader:
    """A ``read(n)`` handing over ``data`` in pieces of at most ``sizes``
    bytes, one size after the other in turn."""

    def __init__(self, data, *sizes):
        self.data, self.sizes, self.pos, self.reads = data, sizes, 0, 0

    def __call__(self, n):
        size = self.sizes[self.reads % len(self.sizes)]
        self.reads += 1
        chunk = self.data[self.pos : self.pos + min(n, size)]
        self.pos += len(chunk)
        return chunk


@pytest.mark.parametrize("size", [_READ_SIZE, 50_000, 4096])
@pytest.mark.parametrize("extra", [0, 1, 5 * _READ_SIZE])
@pytest.mark.parametrize("end", [b"\nb\n", b""])
def test_split_reads_refuses_a_line_over_the_cap_once(size, extra, end):
    line = b"x" * (_MAX_LINE + extra)
    read = SizedReader(b"a\n" + line + end, size)
    got = []
    for lines in _split_reads(read):
        if lines is None:
            # refused before the reader handed over more than one read past the cap
            assert read.pos - 2 <= _MAX_LINE + _READ_SIZE
            got.append(None)
        else:
            got.extend(lines)
    want = ["a", None if extra else line.decode()]
    assert got == want + (["b"] if end else [])


def send_and_close(address, chunks, pause=0.0):
    """Send ``chunks``, half-close, and return the reply lines once the server hangs up."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for chunk in chunks:
            sock.sendall(chunk)
            time.sleep(pause)
        sock.shutdown(socket.SHUT_WR)
        replies = b""
        while data := sock.recv(65536):
            replies += data
    return replies.decode("utf-8").splitlines()


def run_server(chunks, strict_order=True, pause=0.0):
    got = []
    server = StreamServer(got.append, port=0, strict_order=strict_order)
    server.start()
    try:
        replies = send_and_close(server.address, chunks, pause)
    finally:
        stats = server.stop()
    return got, stats, replies


def event_line(case, activity, ts):
    return (event_to_json_line(Event(case, activity, ts)) + "\n").encode("utf-8")


def test_server_one_send_matches_line_by_line():
    lines = [
        event_line("c", "A", 100),
        b"garbage\n",
        event_line("c", "B", 50),
        event_line("c", "C", 200),
        event_line("c", "D", 150),
        b'{"case": "c"}\n',
        event_line("c", "E", 200),
        event_line("c", "F", 300),
        b"not json\n",
    ]
    at_once = run_server([b"".join(lines)])
    one_by_one = run_server(lines, pause=0.01)
    assert at_once == one_by_one
    got, stats, replies = at_once
    assert [ev.activity for ev in got] == ["A", "C", "E", "F"]
    assert stats == ServerStats(received=6, delivered=4, dropped=2, parse_errors=3)
    assert [r.split(":")[0] for r in replies] == [
        "ERR bad_json",
        "ERR out_of_order",
        "ERR out_of_order",
        "ERR missing_field",
        "ERR bad_json",
    ]


def handle_in_process(read, strict_order=True, write=None):
    """One connection through ``_StreamHandler.handle`` without a socket.

    ``read`` is the connection's ``rfile.read1`` and ``write`` its
    ``wfile.write``; by default a reply is logged.  The server is bound and
    never started.  Returns the log, windowed events and reply lines in the
    order they happened, and the server's counters.
    """
    log = []
    server = StreamServer(log.append, port=0, strict_order=strict_order)
    # no BaseRequestHandler.__init__, which would read a socket at once
    handler = _StreamHandler.__new__(_StreamHandler)
    handler.server = server._server
    handler.rfile = SimpleNamespace(read1=read)
    handler.wfile = SimpleNamespace(write=write or (lambda b: log.append(b.decode())))
    try:
        handler.handle()
    finally:
        stats = server.stop()
    return log, stats


def test_tcp_lines_are_parsed_through_the_module_attribute(monkeypatch):
    """``stream_io.parse_event`` is read through its module on the TCP path
    too, so a replacement of it, as the benchmark's tracer installs, sees
    one call per event line of a connection."""
    calls = []

    def counting(*args):
        calls.append(args[0])
        return parse_event(*args)

    monkeypatch.setattr(stream_io, "parse_event", counting)
    lines = [event_line("c", a, t) for t, a in enumerate("ABCDE")]
    log, stats = handle_in_process(chunked_reader([b"".join(lines[:2]), *lines[2:]]))
    assert len(calls) == len(lines) == stats.delivered
    assert log == [Event("c", a, t) for t, a in enumerate("ABCDE")]


# valid event lines of exactly the cap before their newline, and of a byte more
_PAD = _MAX_LINE - len(event_line("c", "", 1)) + 1
AT_CAP = event_line("c", "x" * _PAD, 1)
OVER_CAP = event_line("c", "x" * (_PAD + 1), 1)
stream_bytes = st.builds(
    bytes.__add__,
    st.sampled_from([b"", BOM]),
    st.lists(
        st.one_of(
            st.builds(
                lambda activity, ts, end: event_line("c", activity, ts)[:-1] + end,
                st.sampled_from(["A", "B", "é"]),
                st.integers(0, 3),
                st.sampled_from([b"\n", b"\r\n", b"\r", b""]),
            ),
            st.sampled_from(
                [b"\n", b"  \n", b"\r", b"\x0b", b"\xff", b"\xe2\x82", b"garbage\n"]
                + [b'{"case":"c"}\n', BOM, AT_CAP, OVER_CAP]
            ),
        ),
        max_size=10,
    ).map(b"".join),
)


@settings(max_examples=100, deadline=None)
@given(
    data=stream_bytes,
    strict_order=st.booleans(),
    sizes=st.lists(st.integers(1, _READ_SIZE), min_size=1, max_size=3),
)
@example(  # invalid UTF-8 replaced; a vertical tab and a CRLF ending stripped
    data=event_line("c", "A", 1)
    + b'{"case":"c","activity":"B\xff","timestamp":2}\n'
    + b"\x0b"
    + event_line("c", "C", 3).rstrip(b"\n")
    + b"\x0b\r\n",
    strict_order=True,
    sizes=[_READ_SIZE],
)
@example(  # a lone \r ends no line: one bad_json line, not two events
    data=event_line("c", "A", 1)[:-1] + b"\r" + event_line("c", "B", 2),
    strict_order=True,
    sizes=[_READ_SIZE],
)
@example(  # a byte order mark split over reads starts the stream; a later one is bad
    data=BOM + event_line("c", "A", 1) + BOM + event_line("c", "B", 2),
    strict_order=True,
    sizes=[1, 2],
)
def test_a_file_is_read_the_way_listen_reads_a_connection(
    tmp_path_factory, data, strict_order, sizes
):
    """The same bytes give the same events and the same first error
    through ``replay`` and through the server's connection handler."""
    path = tmp_path_factory.getbasetemp() / "connection.jsonl"
    path.write_bytes(data)
    from_file, file_error = [], None
    try:
        stats = replay(SourceConfig(FILE_JSONL, str(path), strict_order), from_file.append)
    except ParseError as exc:
        file_error = f"ERR {exc.code}"
    except OrderingError:
        file_error = "ERR out_of_order"
    # the last size keeps a line over the cap to a few dozen reads
    log, server_stats = handle_in_process(SizedReader(data, *sizes, _READ_SIZE), strict_order)
    replies = [i for i, item in enumerate(log) if isinstance(item, str)]
    first = replies[0] if replies else len(log)
    assert (log[first].split(":")[0] if replies else None) == file_error
    from_server = log[:first]
    # the server windows a read's in-order events before it answers the
    # regressions among them; a strict file run stops at the first
    assert from_server[: len(from_file)] == from_file
    if file_error != "ERR out_of_order":
        assert from_server == from_file
    if file_error is None:
        assert (server_stats.delivered, server_stats.dropped) == (
            stats.delivered,
            stats.dropped,
        )


@pytest.mark.parametrize("lines_before", [0, 3000])
def test_a_lone_cr_does_not_end_a_file_line(tmp_path, lines_before):
    """A and B joined by a lone \\r are one bad line, numbered after every
    line before it, blank lines and those of earlier reads included."""
    before = (event_line("c", "A", 1) + b"\n \r\n") * lines_before
    path = tmp_path / "ev.jsonl"
    path.write_bytes(before + event_line("c", "A", 1)[:-1] + b"\r" + event_line("c", "B", 2))
    assert len(before) > 2 * _READ_SIZE or not before
    with pytest.raises(ParseError) as err:
        replay(SourceConfig(FILE_JSONL, str(path)), lambda ev: None)
    assert (err.value.code, err.value.line_no) == ("bad_json", 3 * lines_before + 1)


def test_analyze_ends_at_a_file_line_over_the_cap(tmp_path, capsys):
    events = [event_line("c", a, t) for a, t in (("A", 1), ("B", 2), ("x" * _MAX_LINE, 3))]
    path = tmp_path / "ev.jsonl"
    path.write_bytes(b"".join(events) + event_line("c", "D", 4))
    out = tmp_path / "windows.jsonl"
    flags = ["--strategy", "count_tumbling", "--count", "1", "--windows-out", str(out)]
    assert main(["analyze", str(path), *flags]) == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr == f"coverwin: input error: line over {_MAX_LINE} bytes (line 3)\n"
    # the windows closed before the long line are written
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["events"][0]["activity"] for r in records] == ["A", "B"]


def test_replay_of_a_file_without_newlines_holds_at_most_the_cap(tmp_path):
    path = tmp_path / "flat.jsonl"
    path.write_bytes(b"x" * (8 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            replay(SourceConfig(FILE_JSONL, str(path)), lambda ev: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.code, err.value.line_no) == ("line_too_long", 1)
    assert peak < 3 << 20


def test_a_reply_to_a_client_that_is_gone_is_dropped():
    writes = []

    def write(data):
        writes.append(data)
        raise BrokenPipeError

    log, stats = handle_in_process(
        chunked_reader([b"garbage\n", event_line("c", "A", 1)]), write=write
    )
    assert [w.split(b":")[0] for w in writes] == [b"ERR bad_json"]
    # the handler went on to window its next read
    assert log == [Event("c", "A", 1)]
    assert stats == ServerStats(received=1, delivered=1, dropped=0, parse_errors=1)


def test_server_joins_split_lines_and_takes_an_unterminated_last_line():
    first = event_line("c", "A", 1)
    second = '{"case": "c", "activity": "café", "timestamp": 2}\n'.encode("utf-8")
    last = event_line("c", "C", 3).rstrip(b"\n")
    cut = second.index("é".encode()) + 1  # inside the two bytes of é
    got, stats, replies = run_server(
        [first + second[:cut], second[cut:] + last], pause=0.05
    )
    assert got == [Event("c", "A", 1), Event("c", "café", 2), Event("c", "C", 3)]
    assert stats == ServerStats(received=3, delivered=3, dropped=0, parse_errors=0)
    assert replies == []


@settings(max_examples=10, deadline=None)
@given(
    clients=st.lists(
        st.lists(st.integers(0, 40), max_size=25), min_size=2, max_size=4
    ),
    strict_order=st.booleans(),
    chunk_size=st.integers(1, 300),
)
def test_server_concurrent_clients_lose_nothing(clients, strict_order, chunk_size):
    got = []
    # events received but neither delivered nor dropped, at each delivery
    backlogs = []

    def on_event(event):
        stats = server.stats
        backlogs.append(stats.received - stats.delivered - stats.dropped)
        got.append(event)

    server = StreamServer(on_event, port=0, strict_order=strict_order)
    server.start()
    replies = {}

    def client(k, stamps):
        lines = [event_line(f"k{k}", f"a{i}", ts) for i, ts in enumerate(stamps)]
        lines.insert(len(lines) // 2, b"garbage\n")
        data = b"".join(lines)
        chunks = [data[i : i + chunk_size] for i in range(0, len(data), chunk_size)]
        replies[k] = send_and_close(server.address, chunks)

    threads = [
        threading.Thread(target=client, args=(k, stamps))
        for k, stamps in enumerate(clients)
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave handler threads finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
    finally:
        sys.setswitchinterval(switch)
        stats = server.stop()
    assert not any(t.is_alive() for t in threads)
    assert sorted(replies) == list(range(len(clients)))
    assert stats.received == sum(len(stamps) for stamps in clients)
    assert stats.received == stats.delivered + stats.dropped
    assert len(got) == stats.delivered
    # only the batch in hand, the one event being delivered at least, is
    # outstanding; it came from one connection's read
    assert all(1 <= b <= max(map(len, clients)) for b in backlogs)
    assert stats.parse_errors == len(clients)
    stamps = [ev.timestamp for ev in got]
    assert stamps == sorted(stamps)
    for k in range(len(clients)):
        order = [int(ev.activity[1:]) for ev in got if ev.case_id == f"k{k}"]
        assert order == sorted(order)
    out_of_order = sum(r.startswith("ERR out_of_order") for rs in replies.values() for r in rs)
    assert out_of_order == (stats.dropped if strict_order else 0)


def test_events_enqueued_after_stop_are_counted_as_dropped():
    got = []
    server = StreamServer(got.append, port=0)
    server.start()
    assert server._deliver([Event("c", "A", 1)]) == 0
    final = server.stop()
    # a handler thread can still hand over a batch after stop()
    assert server._deliver([Event("c", "B", 2), Event("c", "C", 3)]) == 0
    stats = server.stats
    assert got == [Event("c", "A", 1)]
    assert stats.received == stats.delivered + stats.dropped
    assert (stats.received, stats.delivered, stats.dropped) == (3, 1, 2)
    # what stop() returned is a snapshot: the late batch is not in it
    assert final == ServerStats(received=1, delivered=1, dropped=0)


def test_a_bad_line_is_counted_in_the_step_that_windows_its_batch():
    def on_event(event):
        if event.activity == "B":
            raise RuntimeError("sink failed")

    server = StreamServer(on_event, port=0)
    # the batch before a bad line raised in on_event: the bad line still counts
    with pytest.raises(RuntimeError):
        server._deliver([Event("c", "A", 1), Event("c", "B", 2)], parse_error=True)
    assert server._deliver([], parse_error=True) == 0
    at_stop = ServerStats(received=2, delivered=1, dropped=1, parse_errors=2)
    assert server.stop() == at_stop
    # a bad line that arrives after stop() is counted too
    assert server._deliver([Event("c", "C", 3)], parse_error=True) == 0
    late = ServerStats(received=3, delivered=1, dropped=2, parse_errors=3)
    assert server.stats == late


def test_server_answers_a_line_over_the_cap_once_and_goes_on():
    got = []
    server = StreamServer(got.append, port=0)
    server.start()
    try:
        with (
            socket.create_connection(server.address, timeout=10.0) as sock,
            sock.makefile("rb") as replies,
        ):
            sock.sendall(event_line("c", "A", 1) + b"x" * (3 << 20))
            reply = replies.readline()
            # the event read before the long line was windowed before the reply
            assert got == [Event("c", "A", 1)]
            sock.sendall(b"\n" + event_line("c", "B", 2))
            sock.shutdown(socket.SHUT_WR)
            rest = replies.read()
    finally:
        stats = server.stop()
    assert reply.startswith(b"ERR line_too_long: ")
    assert rest == b""
    assert got == [Event("c", "A", 1), Event("c", "B", 2)]
    assert stats == ServerStats(received=2, delivered=2, dropped=0, parse_errors=1)


def test_an_on_event_that_raises_drops_the_rest_of_its_read():
    got = []
    raised = threading.Event()

    def on_event(event):
        if event.activity == "B":
            raised.set()
            raise RuntimeError("sink failed")
        got.append(event)

    server = StreamServer(on_event, port=0)
    server.start()
    try:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            one_read = [event_line("c", a, t) for a, t in (("A", 1), ("B", 2), ("C", 3))]
            sock.sendall(b"".join(one_read))
            assert raised.wait(5.0)
            try:
                sock.sendall(event_line("c", "D", 4))
            except OSError:
                pass  # the server may have closed the connection already
        send_and_close(server.address, [event_line("c", "E", 5)])
    finally:
        stats = server.stop()
    assert [ev.activity for ev in got] == ["A", "E"]
    # B raised: it and C count as dropped; the connection ended before D
    assert (stats.received, stats.delivered, stats.dropped) == (4, 2, 2)
    assert stats.received == stats.delivered + stats.dropped


def test_stop_serving_drops_every_later_event_and_still_answers(capsys):
    got = []

    def on_event(event):
        if event.activity == "B":
            raise StopServing
        got.append(event)

    server = StreamServer(on_event, port=0)
    server.start()
    try:
        one_read = [event_line("c", a, t) for a, t in (("A", 1), ("B", 2), ("C", 3))]
        first = send_and_close(server.address, [b"".join(one_read) + b"bad\n"])
        later = send_and_close(server.address, [event_line("c", "D", 4), b"bad\n"])
    finally:
        stats = server.stop()
    # B stopped the server: B, C and the later connection's D are dropped,
    # and both bad lines are still answered
    assert got == [Event("c", "A", 1)]
    assert [r.split(":")[0] for r in first + later] == ["ERR bad_json"] * 2
    assert stats == ServerStats(received=4, delivered=1, dropped=3, parse_errors=2)
    assert "Traceback" not in capsys.readouterr().err


def test_a_client_that_resets_its_connection_ends_its_stream_quietly(capsys):
    """A reset reads as a close: no socketserver traceback reaches stderr,
    which carries listen's window lines, and the events before it count."""
    got = []
    server = StreamServer(got.append, port=0)
    handler_done = threading.Event()
    shutdown_request = server._server.shutdown_request

    def last_step_of_a_handler(request):  # runs after handle_error, if any
        shutdown_request(request)
        handler_done.set()

    server._server.shutdown_request = last_step_of_a_handler
    server.start()
    try:
        sock, pipe = line_client(server.address)
        lines = [event_to_json_line(Event("c", a, t)) for a, t in (("A", 1), ("B", 2))]
        pipe.write("\n".join(lines) + "\ncaught up\n")
        pipe.flush()
        assert pipe.readline().startswith("ERR bad_json:")
        # linger on, with a zero timeout: close() sends a reset
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        pipe.close()
        sock.close()
        assert handler_done.wait(5.0)
    finally:
        stats = server.stop()
    assert "Traceback" not in capsys.readouterr().err
    assert got == [Event("c", "A", 1), Event("c", "B", 2)]
    # received = delivered + dropped
    assert stats == ServerStats(received=2, delivered=2, dropped=0, parse_errors=1)


def test_a_sender_that_outruns_windowing_is_held_back_by_tcp():
    entered, release = threading.Event(), threading.Event()
    got = []

    def on_event(event):
        entered.set()
        release.wait(30.0)
        got.append(event)

    line = event_line("c", "A" * 40, 10**12)
    per_read = _READ_SIZE // len(line) + 1
    cap = 4 << 20  # over ten times what the socket buffers held when blocked
    server = StreamServer(on_event, port=0)
    server.start()
    try:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            # a fixed send buffer keeps the kernel from growing it
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 65536)
            sock.setblocking(False)
            data = line * 2048
            sent = 0
            blocked_since = None
            while sent < cap:
                try:
                    # go on from the middle of a line a short send cut
                    sent += sock.send(data[sent % len(line) :])
                    blocked_since = None
                except BlockingIOError:
                    now = time.monotonic()
                    if blocked_since is None:
                        blocked_since = now
                    elif now - blocked_since > 0.3 and entered.is_set():
                        break
                    time.sleep(0.01)
            held = server.stats.received
            release.set()
            # finish the line in flight, then let the server drain the socket
            sock.settimeout(10.0)
            sock.sendall(line[len(line) - (-sent % len(line)) :])
            sock.shutdown(socket.SHUT_WR)
            replies = b""
            while more := sock.recv(65536):
                replies += more
    finally:
        release.set()
        stats = server.stop()
    assert sent < cap, "the sender was never held back"
    assert 1 <= held <= per_read
    sent_events = -(-sent // len(line))
    assert replies == b""
    assert len(got) == stats.delivered == stats.received == sent_events
    assert stats.received == stats.delivered + stats.dropped


def test_stop_waits_for_the_event_being_windowed():
    entered, release, windowed = threading.Event(), threading.Event(), threading.Event()
    got = []

    def on_event(event):
        entered.set()
        release.wait(10.0)
        got.append(event)
        windowed.set()

    server = StreamServer(on_event, port=0)
    server.start()
    seen_at_stop = []

    def stop():
        server.stop()
        seen_at_stop.append(windowed.is_set())

    with socket.create_connection(server.address, timeout=5.0) as sock:
        sock.sendall(event_line("c", "A", 1))
        assert entered.wait(5.0)
        stopper = threading.Thread(target=stop)
        stopper.start()
        # longer than serve_forever's 0.5 s poll, which delays any stop()
        stopper.join(1.0)
        release.set()
        stopper.join(5.0)
    assert seen_at_stop == [True]
    assert got == [Event("c", "A", 1)]
    assert server.stats == ServerStats(
        received=1, delivered=1, dropped=0, parse_errors=0
    )


def test_on_event_calls_never_overlap():
    entered, release = threading.Event(), threading.Event()
    running, overlaps, got = [], [], []

    def on_event(event):
        overlaps.append(len(running))
        running.append(event)
        entered.set()
        release.wait(10.0)
        got.append(running.pop())

    server = StreamServer(on_event, port=0)
    server.start()
    try:
        first = socket.create_connection(server.address, timeout=5.0)
        second = socket.create_connection(server.address, timeout=5.0)
        first.sendall(event_line("a", "A", 1))
        assert entered.wait(5.0)
        second.sendall(event_line("b", "B", 2))
        time.sleep(0.3)  # time for the second handler to reach on_event
        release.set()
        deadline = time.monotonic() + 5.0
        while len(got) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        first.close()
        second.close()
    finally:
        release.set()
        stats = server.stop()
    assert overlaps == [0, 0]
    assert got == [Event("a", "A", 1), Event("b", "B", 2)]
    assert stats.delivered == 2


def test_stop_without_start_returns():
    server = StreamServer(lambda e: None, port=0)
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(5.0)
    assert not stopper.is_alive()


def test_stop_returns_promptly_after_a_client_leaves():
    # serve_forever notices shutdown() only when its poll times out
    server = StreamServer(lambda e: None, port=0)
    server.start()
    try:
        send_and_close(server.address, [event_line("c", "A", 1)])
    finally:
        start = time.perf_counter()
        server.stop()
        took = time.perf_counter() - start
    assert took < 0.2
