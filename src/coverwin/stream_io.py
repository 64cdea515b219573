"""Event ingestion and result serialization.

Inputs: JSON-lines or CSV event files replayed in file order, or a
line-delimited TCP listener (its socket handler is in ``tcp``), both
split into lines by ``_split_reads``.
All paths funnel into a single ordered pipeline; timestamps must be
non-decreasing.  In strict mode a timestamp regression is an error, in
lenient mode the offending event is dropped and counted.  The TCP
listener has no queue, so TCP slows a sender that outruns windowing.

Outputs: window records as JSON lines, metric series as CSV.
"""

from __future__ import annotations

import csv
import json
import re
import threading
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Iterator, Sequence

from .views import SEPARATOR, Event
from .window import WindowRecord

FILE_JSONL = "jsonl"
FILE_CSV = "csv"
SOURCE_KINDS = (FILE_JSONL, FILE_CSV)

CSV_HEADER = ("case_id", "activity", "timestamp")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MS = timedelta(milliseconds=1)

# the exact line event_to_json_line writes: strings without escapes or
# control characters are their own value, and an integer of at most 18
# digits stays far below int()'s digit limit
_COMPACT_EVENT = re.compile(
    r'\{"case":"([^"\\\x00-\x1f]*)","activity":"([^"\\\x00-\x1f]*)",'
    r'"timestamp":(-?(?:0|[1-9][0-9]{0,17}))\}\n?'
).fullmatch


class ParseError(ValueError):
    """A rejected input line.  ``code`` is a stable machine-readable tag."""

    def __init__(self, code: str, message: str, line_no: int | None = None):
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(message + where)
        self.code = code
        self.line_no = line_no


class OrderingError(ValueError):
    """Timestamp regression in strict-order mode."""


def _parse_timestamp(value: object, line_no: int | None) -> int:
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise ParseError("bad_timestamp", f"timestamp not whole ms: {value!r}", line_no)
    if isinstance(value, str):
        text = value.strip()
        try:
            return int(text)
        except ValueError:
            pass
        # RFC-3339; Python 3.10 fromisoformat does not accept a Z suffix
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        try:
            parsed = datetime.fromisoformat(text)
        except ValueError:
            raise ParseError(
                "bad_timestamp", f"bad timestamp: {value!r}", line_no
            ) from None
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=timezone.utc)
        return (parsed - _EPOCH) // _MS
    raise ParseError("bad_timestamp", f"bad timestamp: {value!r}", line_no)


def parse_event(line: str, fmt: str = "jsonl", line_no: int | None = None) -> Event:
    """Parse one input line into an Event.

    ``fmt`` is "jsonl" (object with keys case, activity, timestamp) or
    "csv" (data row case_id,activity,timestamp).  Timestamps are integer
    milliseconds since the epoch or RFC-3339 strings; naive datetimes are
    taken as UTC.  Raises ParseError with a stable code on bad input.
    """
    if fmt == "jsonl":
        match = _COMPACT_EVENT(line)
        if match:
            case, activity, timestamp = match.groups()
            timestamp = int(timestamp)
        else:
            # an over-long integer raises ValueError, too deep nesting RecursionError
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ParseError("bad_json", f"invalid JSON: {exc}", line_no) from None
            if not isinstance(obj, dict):
                raise ParseError("bad_json", "event line must be a JSON object", line_no)
            try:
                case, activity = obj["case"], obj["activity"]
                timestamp = obj["timestamp"]
            except KeyError:
                raise ParseError(
                    "missing_field", "need keys case, activity, timestamp", line_no
                ) from None
    elif fmt == "csv":
        try:
            row = next(csv.reader([line]))
        except csv.Error as exc:  # a lone \r, or a field over csv.field_size_limit()
            raise ParseError("bad_csv", str(exc), line_no) from None
        if len(row) != len(CSV_HEADER):
            raise ParseError(
                "bad_csv", f"expected {len(CSV_HEADER)} columns, got {len(row)}", line_no
            )
        case, activity, timestamp = row
    else:
        raise ValueError(f"unknown format: {fmt!r}")
    # JSON's types are exact, a bool is no int, and any other type counts as missing
    if type(case) is not str:
        case = str(case) if type(case) is int else ""
    case = case.strip()
    activity = activity.strip() if type(activity) is str else ""
    if not case:
        raise ParseError("missing_field", "case id missing or empty", line_no)
    if not activity:
        raise ParseError("missing_field", "activity missing or empty", line_no)
    if SEPARATOR in activity:
        raise ParseError(
            "reserved_separator",
            f"activity must not contain {SEPARATOR!r}: {activity!r}",
            line_no,
        )
    if type(timestamp) is not int:
        timestamp = _parse_timestamp(timestamp, line_no)
    return Event(case, activity, timestamp)


@dataclass(frozen=True)
class SourceConfig:
    """Which event file to replay and how strictly to treat its order."""

    kind: str
    path: str = ""
    strict_order: bool = True

    def __post_init__(self) -> None:
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind: {self.kind!r}")
        if not self.path:
            raise ValueError("file sources need a path")


@dataclass
class ReplayStats:
    delivered: int = 0
    dropped: int = 0


def replay(source: SourceConfig, sink: Callable[[Event], None]) -> ReplayStats:
    """Feed a file source through ``sink`` in file order.

    Strict ordering raises OrderingError on the first timestamp
    regression; lenient ordering drops and counts regressing events.
    Lines come from ``_split_reads``, as the TCP listener's do; a line over
    ``_MAX_LINE`` bytes ends the run with ParseError ``line_too_long``.
    Blank lines are skipped; the CSV header row is required.  Errors name
    line numbers, blank lines counted.
    """
    fmt = source.kind
    stats = ReplayStats()
    last_ts: int | None = None
    header_seen = fmt != FILE_CSV
    line_no = 0
    with open(source.path, "rb") as fp:
        for lines in _split_reads(fp.read1):
            if lines is None:
                raise _line_too_long(line_no + 1)
            for line_no, line in enumerate(lines, line_no + 1):
                if not line:
                    continue
                if not header_seen:
                    header_seen = True
                    try:
                        cells = [c.strip() for c in next(csv.reader([line]))]
                    except csv.Error as exc:
                        raise ParseError("bad_csv", str(exc), line_no) from None
                    if [c.lower() for c in cells] == list(CSV_HEADER):
                        continue
                    raise ParseError(
                        "missing_header",
                        f"first CSV line must be the header {','.join(CSV_HEADER)}",
                        line_no,
                    )
                event = parse_event(line, fmt, line_no)
                if last_ts is not None and event.timestamp < last_ts:
                    if source.strict_order:
                        raise OrderingError(
                            f"timestamp went backwards at line {line_no}: "
                            f"{event.timestamp} < {last_ts}"
                        )
                    stats.dropped += 1
                    continue
                last_ts = event.timestamp
                sink(event)
                stats.delivered += 1
    return stats


# --- line reading and the TCP listener -------------------------------------


_READ_SIZE = 65536
# longest line of a file or a connection, in bytes before its newline
_MAX_LINE = 1 << 20
# seconds between serve_forever's checks for shutdown: how long stop() waits at most
_POLL_SECONDS = 0.05


def _line_too_long(line_no: int | None = None) -> ParseError:
    return ParseError("line_too_long", f"line over {_MAX_LINE} bytes", line_no)


def _split_reads(read: Callable[[int], bytes]) -> Iterator[list[str] | None]:
    """The lines of a byte stream, one list per read that ends a line.

    Files and connections alike become lines here.  A line ends only at
    ``\\n``; each is decoded as UTF-8 with bad bytes replaced and stripped,
    and a blank line comes as "", so lines can be counted.  The bytes of a
    line split across reads grow one tail until its newline arrives; a
    last line without a newline comes alone at EOF.  A line longer than
    ``_MAX_LINE`` bytes comes as one None as soon as a read takes it past
    the cap, and its bytes are skipped through its newline, so memory
    stays bounded without newlines.  A UTF-8 byte order mark that starts
    the stream is dropped, also when its bytes come in several reads.
    """
    bom = "\ufeff"  # dropped from the first line only
    tail: bytearray | None = bytearray()  # None while skipping a refused line
    while chunk := read(_READ_SIZE):
        cut = chunk.rfind(b"\n") + 1
        end = chunk.find(b"\n") if cut else len(chunk)
        # a line inside one read is shorter than the cap; only one begun
        # in an earlier read can outgrow it
        if tail is None or len(tail) + end > _MAX_LINE:
            bom = ""
            if tail is not None:
                yield None
            tail = bytearray() if cut else None
            if not cut:
                continue
            chunk = chunk[end + 1 :]
            cut -= end + 1
        if not cut:
            tail += chunk
            continue
        tail += chunk[: cut - 1]
        text = tail.decode("utf-8", "replace").removeprefix(bom)
        bom = ""
        tail = bytearray(chunk[cut:])
        yield list(map(str.strip, text.split("\n")))
    if tail:
        yield [tail.decode("utf-8", "replace").removeprefix(bom).strip()]


class StopServing(Exception):
    """Raised by a ``StreamServer``'s or ``replay``'s sink to stop windowing for good."""


@dataclass
class ServerStats:
    received: int = 0
    delivered: int = 0
    dropped: int = 0
    parse_errors: int = 0


class StreamServer:
    """Line-protocol TCP listener feeding one ordered pipeline.

    Each connection sends one JSON event per line.  Bad lines, and lines
    over ``_MAX_LINE`` bytes, are answered with ``ERR <code>: <detail>``
    and the connection stays up; a connection's replies come in the order
    of its lines.  Its handler thread calls ``on_event`` for the events of
    each read, under one lock for all connections, before it reads again:
    events are windowed in arrival order, downstream state needs no
    locking, and TCP slows a fast sender.  Timestamp regressions are
    rejected at the door: silently counted in lenient mode, answered with
    an ERR line in strict mode.  The server never crashes on a bad or
    out-of-order line.  Events that arrive after ``stop`` are counted as
    received and dropped.  ``on_event`` may raise ``StopServing`` to stop
    windowing: that event and every later one are counted as dropped, and
    connections are still answered.

    ``on_batch``, if given, is called after each batch a handler hands
    over (a read's events, or the part of a read before a bad line), under
    the same lock, once the batch's events have been through ``on_event``
    and before any ERR reply to the batch is sent.  It is not called for a
    batch whose ``on_event`` raised, nor once the server is closed.  It may
    raise ``StopServing`` too, which closes the server; any other exception
    it raises propagates as one from ``on_event`` does.
    """

    def __init__(
        self,
        on_event: Callable[[Event], None],
        host: str = "127.0.0.1",
        port: int = 0,
        strict_order: bool = True,
        on_batch: Callable[[], None] | None = None,
    ) -> None:
        self.on_event = on_event
        self.on_batch = on_batch
        self.strict_order = strict_order
        self.stats = ServerStats()
        self._lock = threading.Lock()
        self._last_ts: int | None = None
        self._closed = False
        from .tcp import _StreamHandler, _TcpServer  # only listen loads socketserver

        self._server = _TcpServer((host, port), _StreamHandler)
        self._server.owner = self
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever, args=(_POLL_SECONDS,), daemon=True
        )

    @property
    def address(self) -> tuple[str, int]:
        """Actual (host, port); useful when bound to port 0."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> None:
        self._serve_thread.start()

    def stop(self) -> ServerStats:
        """Stop accepting and return a copy of the counters at this point.

        Every event accepted before this returns has been windowed, so the
        caller may touch the pipeline's state afterwards.  Events a handler
        hands over later still count in ``stats``, not in the copy.
        """
        # shutdown() waits for serve_forever to end, which never began
        # unless start() ran
        if self._serve_thread.ident is not None:
            self._server.shutdown()
            self._serve_thread.join()
        self._server.server_close()
        # handler threads outlive server_close; a handler windows a batch
        # inside the lock, so none is midway here, and later ones are dropped
        with self._lock:
            self._closed = True
            return replace(self.stats)

    def _deliver(self, batch: list[Event], parse_error: bool = False) -> int:
        """Window the in-order events of ``batch`` through ``on_event``,
        then call ``on_batch``.

        ``parse_error`` counts the bad line that ended the batch.  Returns
        how many events were rejected for going back in time.  If
        ``on_event`` raises, its event and the rest of the batch count as
        dropped, and the exception propagates, unless it is ``StopServing``,
        which closes the server instead.
        """
        # the order check, the on_event calls and the counters are one atomic
        # step, otherwise two connections could interleave inconsistently
        with self._lock:
            stats = self.stats
            stats.parse_errors += parse_error
            stats.received += len(batch)
            if self._closed:
                stats.dropped += len(batch)
                return 0
            last = self._last_ts
            kept = []
            for event in batch:
                if last is None or event.timestamp >= last:
                    last = event.timestamp
                    kept.append(event)
            self._last_ts = last
            rejected = len(batch) - len(kept)
            stats.dropped += rejected
            before = stats.delivered
            try:
                for event in kept:
                    self.on_event(event)
                    stats.delivered += 1
                if self.on_batch is not None:
                    self.on_batch()
            except StopServing:
                self._closed = True
            finally:
                # an on_event that raised leaves its event and the rest undelivered
                stats.dropped += len(kept) - (stats.delivered - before)
            return rejected


# --- serialization --------------------------------------------------------


def event_to_json_line(event: Event) -> str:
    """One event as compact JSON: ``json.dumps``'s text with ``(",", ":")``."""
    return (
        f'{{"case":{_quote(event.case_id)},"activity":{_quote(event.activity)},'
        f'"timestamp":{event.timestamp!r}}}'
    )


def write_events_jsonl(events: Iterable[Event], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for event in events:
            fp.write(event_to_json_line(event) + "\n")


def write_events_csv(events: Iterable[Event], path: str) -> None:
    write_metrics_csv(
        path, CSV_HEADER, ((e.case_id, e.activity, e.timestamp) for e in events)
    )


#: the most texts one FloatTexts holds
FLOAT_TEXTS_MAX = 4096


class FloatTexts(dict):
    """float -> its text in one record format, printed at the first lookup.

    Records repeat a few floats (the estimators depend only on n, s_n, f1
    and f2, and ``ct`` often sits at ``mt``): a hit costs about 40 ns where
    printing costs up to 0.6 µs (Python 3.11, a 2-vCPU Xeon VM).  Exact:
    equal floats print alike, save 0.0 and -0.0, one key that prints as
    0.0, the only zero a ``WindowRecord`` holds; keys are ``float``s, as a
    record's are (``1 == 1.0`` prints otherwise).  Bounded: a miss on a
    full memo empties it first.
    """

    def __init__(self, fmt: Callable[[float], str]) -> None:
        super().__init__()
        self._fmt = fmt

    def __missing__(self, value: float) -> str:
        if len(self) >= FLOAT_TEXTS_MAX:
            self.clear()
        text = self[value] = self._fmt(value + 0.0)
        return text


_JSON_FLOATS = FloatTexts(repr)


def window_record_to_json(record: WindowRecord) -> str:
    """One window record as a single JSON line with a stable key order.

    Same text as ``json.dumps(..., separators=(",", ":"))``: a record's
    floats are finite and never -0.0 (see ``WindowRecord``), so each prints
    as its repr, from a bounded ``FloatTexts``.
    """
    r = record
    texts = _JSON_FLOATS
    events = ",".join(map(event_to_json_line, r.events))
    return (
        f'{{"index":{r.index!r},"size":{r.size!r},"first_ts":{r.first_ts!r},'
        f'"last_ts":{r.last_ts!r},"coverage":{texts[r.coverage]},'
        f'"completeness":{texts[r.completeness]},"chao1":{texts[r.chao1]},'
        f'"threshold":{texts[r.threshold]},'
        f'"force_closed":{"true" if r.force_closed else "false"},"events":[{events}]}}'
    )


def write_metrics_csv(
    path: str, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """Write one metric series; no rows still produces the header line."""
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(header)
        writer.writerows(rows)
