"""Command-line interface.

Subcommands: analyze (window a file), estimate (whole-file estimates),
driftgen (synthesize drifting streams), bench (latency, drift reaction,
strategy comparison), listen (TCP ingestion).

Every subcommand accepts ``--config FILE`` with ``key = value`` lines; keys
are the flags argv may omit, bar --help and --config, with underscores.
Precedence: command-line flag over config file over built-in default.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import threading
from dataclasses import asdict, astuple, fields, replace
from typing import Iterable, Sequence, TextIO

from .abundance import AbundanceStats, estimates
from .baselines import (
    BASELINE_KINDS,
    COUNT_TUMBLING,
    LANDMARK,
    BaselineConfig,
    BaselineWindow,
)
from .stream_io import (
    FILE_CSV,
    FILE_JSONL,
    SOURCE_KINDS,
    FloatTexts,
    OrderingError,
    ParseError,
    SourceConfig,
    StopServing,
    StreamServer,
    replay,
    window_record_to_json,
    write_events_csv,
    write_events_jsonl,
    write_metrics_csv,
)
from .views import VIEW_KINDS, Event, SpeciesView, ViewConfig
from .window import AdaptiveWindow, ThresholdState, Windower, WindowRecord

# What only some commands run is imported inside them: bench, driftgen,
# signal, and socketserver through StreamServer.  bench alone, with the
# statistics module it pulls in, costs 12-17 ms, about a sixth of the
# start-up of analyze and listen, which never use it.

SIZES_HEADER = ("index", "size", "first_ts", "last_ts", "coverage", "threshold")
# driftgen's built-in scenarios, named here so that building the parsers does
# not import driftgen; a test pins them to its table
SCENARIO_NAMES = (
    "sudden", "gradual", "recurring", "incremental", "steady3", "steady5", "throughput"
)
_SEED_NOTE = "; incremental, steady3 and steady5 give the same events for every seed"


def _cells(values: Iterable[object]) -> list[object]:
    """Report values as printed: floats as ``.6g``, the rest unchanged."""
    return [format(v, ".6g") if isinstance(v, float) else v for v in values]


def _line(**pairs: object) -> str:
    """One ``key=value`` report line."""
    return " ".join(f"{k}={v}" for k, v in zip(pairs, _cells(pairs.values())))


def _outpath(outdir: str, name: str) -> str:
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _write_table(outdir: str, name: str, rows: Sequence) -> None:
    """CSV of dataclass rows; the header is the row fields."""
    header = [f.name for f in fields(rows[0])]
    write_metrics_csv(_outpath(outdir, name), header, [_cells(astuple(r)) for r in rows])


def _int_list(text: str) -> list[int]:
    """Comma-separated window sizes, each at least 1, two of them distinct."""
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        sizes = None
    if sizes is None or any(n < 1 for n in sizes) or len(set(sizes)) < 2:
        raise argparse.ArgumentTypeError(f"not a size list: {text!r}")
    return sizes


# --- flag groups ------------------------------------------------------------


def _add_outdir_flag(p: argparse.ArgumentParser, files: str) -> None:
    p.add_argument("--outdir", default=None, metavar="DIR", help=f"write {files} here")


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="event log (.jsonl or .csv)")
    p.add_argument(
        "--format",
        choices=("auto", *SOURCE_KINDS),
        default="auto",
        help="input format; auto picks by file extension",
    )
    p.add_argument(
        "--lenient",
        action="store_true",
        help="drop and count out-of-order events instead of failing",
    )


def _add_view_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--view",
        choices=VIEW_KINDS,
        default="activity_ngram",
        help="species definition",
    )
    p.add_argument(
        "--ngram", type=int, default=ViewConfig.ngram_order, help="n-gram order (1..5)"
    )
    p.add_argument(
        "--case-timeout",
        type=int,
        default=ViewConfig.case_timeout,
        help="ms of stream-time inactivity after which a case is complete",
    )


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scenario",
        choices=SCENARIO_NAMES,
        default="sudden",
        help="built-in scenario",
    )
    p.add_argument(
        "--seed", type=int, default=None, help="override the scenario seed" + _SEED_NOTE
    )


def _add_strategy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--strategy",
        choices=("adaptive",) + BASELINE_KINDS,
        default="adaptive",
        help="windowing strategy",
    )
    _add_rule_flags(p, timed=True)


def _add_rule_flags(p: argparse.ArgumentParser, timed: bool) -> None:
    t = ThresholdState
    p.add_argument("--ct0", type=float, default=t.ct, help="initial closing threshold")
    p.add_argument("--sf0", type=float, default=t.sf, help="initial smoothing factor")
    p.add_argument(
        "--dr", type=float, default=t.dr, help="threshold decay on stagnation"
    )
    p.add_argument("--mt", type=float, default=t.mt, help="threshold floor")
    p.add_argument(
        "--delta", type=float, default=t.delta, help="stagnation tolerance on deltas"
    )
    p.add_argument(
        "--stagnation-window",
        type=int,
        default=t.w,
        help="trailing coverage points the stagnation check inspects",
    )
    p.add_argument(
        "--min-window-size", type=int, default=5, help="smallest adaptive window"
    )
    b = BaselineConfig
    p.add_argument(
        "--count", type=int, default=b.count, help="events per count_tumbling window"
    )
    if timed:
        ms = "ms per time_tumbling window"
        p.add_argument("--duration", type=int, default=b.duration, help=ms)
    p.add_argument(
        "--landmark-activity", default="A", help="activity that opens a landmark window"
    )


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--windows-out", default=None, metavar="FILE", help="write window records JSONL"
    )
    p.add_argument(
        "--sizes-csv", default=None, metavar="FILE", help="write per-window metrics CSV"
    )


# --- shared construction ----------------------------------------------------


def _source_kind(path: str, fmt: str) -> str:
    if fmt == "auto":
        return FILE_CSV if path.lower().endswith(".csv") else FILE_JSONL
    return fmt


def _make_source(args: argparse.Namespace) -> SourceConfig:
    return SourceConfig(
        kind=_source_kind(args.file, args.format),
        path=args.file,
        strict_order=not args.lenient,
    )


def _make_view(args: argparse.Namespace) -> SpeciesView:
    return SpeciesView(
        ViewConfig(
            kind=args.view, ngram_order=args.ngram, case_timeout=args.case_timeout
        )
    )


def _make_strategy(args: argparse.Namespace) -> Windower:
    view = _make_view(args)
    if args.strategy == "adaptive":
        threshold = ThresholdState(
            ct=args.ct0,
            sf=args.sf0,
            dr=args.dr,
            mt=args.mt,
            delta=args.delta,
            w=args.stagnation_window,
        )
        return AdaptiveWindow(view, threshold, min_window_size=args.min_window_size)
    config = BaselineConfig(
        kind=args.strategy,
        count=args.count,
        # bench compare runs no time_tumbling rule, so it has no --duration
        duration=getattr(args, "duration", BaselineConfig.duration),
        landmark_activity=args.landmark_activity,
    )
    return BaselineWindow(view, config)


_SIZES_FLOATS = FloatTexts("{:.6g}".format)
_SUMMARY_FLOATS = FloatTexts(lambda x: repr(round(x, 6)))


def _sizes_line(r: WindowRecord) -> str:
    """One sizes-CSV row: ``csv.writer``'s bytes, as ints and ``.6g`` floats
    never need quoting.  Floats come from a bounded ``FloatTexts``."""
    c, t = _SIZES_FLOATS[r.coverage], _SIZES_FLOATS[r.threshold]
    return f"{r.index},{r.size},{r.first_ts},{r.last_ts},{c},{t}\r\n"


def _summary_line(r: WindowRecord) -> str:
    """The ``--verbose`` line of a window: ``json.dumps``'s bytes for its
    summary, the floats rounded to 6 places by a ``FloatTexts``, and a newline."""
    texts = _SUMMARY_FLOATS
    forced = "true" if r.force_closed else "false"
    return (
        f'{{"index": {r.index}, "size": {r.size}, "coverage": {texts[r.coverage]}, '
        f'"threshold": {texts[r.threshold]}, "force_closed": {forced}}}\n'
    )


def _one_file_each(*named: tuple[str, str | None]) -> None:
    """Refuse a path of ``named``, (what, path) pairs with the outputs last, that
    is an earlier one's file: equal real paths, or ``samefile`` if both exist."""
    given = [(what, path) for what, path in named if path]
    for i, (_, path) in enumerate(given):
        for what, other in given[:i]:
            same = os.path.realpath(path) == os.path.realpath(other)
            both = os.path.exists(path) and os.path.exists(other)
            if same or both and os.path.samefile(path, other):
                raise ValueError(f"output {path} is the {what} file")


def _open_sizes_csv(path: str) -> TextIO:
    """A sizes CSV opened for writing, its header already written."""
    fp = open(path, "w", encoding="utf-8", newline="")
    fp.write(",".join(SIZES_HEADER) + "\r\n")
    return fp


class _RecordWriter:
    """Windows events with ``strategy`` and streams closed windows to the outputs.

    The outputs are ``--windows-out``, ``--sizes-csv`` and, with ``verbose``,
    the window lines on stderr, kept in ``pending`` until ``publish`` writes
    them with one call, which the caller makes after each event or read.
    Running aggregates for the summary stand in for the records, so memory
    does not grow with the stream.  No file is touched before ``open_outputs``.
    The first write to fail, to any output, is kept in ``failure`` and sets
    ``stop`` if given; the other outputs still get that window, and the next
    ``process`` raises ``StopServing`` before it windows anything.
    """

    def __init__(
        self, strategy: Windower, verbose: bool, stop: threading.Event | None = None
    ) -> None:
        self.verbose = verbose
        self._strategy = strategy
        self.failure: OSError | None = None
        self._stop = stop
        self.windows = 0
        self._size_min = float("inf")
        self._size_max = 0
        # 0 + c0 + c1 + ..., the order and start value of sum()
        self._coverage_sum = 0
        self._forced = 0
        self.pending: list[str] = []
        self._windows_fp: TextIO | None = None
        self._sizes_fp: TextIO | None = None

    def open_outputs(self, args: argparse.Namespace, source: str | None = None) -> None:
        """Truncate the files ``args`` names, none the input file ``source`` or
        the other.  A live stream, with no ``source``, line-buffers the windows
        file, so a reader tailing it sees each record as it closes."""
        outputs = ("--windows-out", args.windows_out), ("--sizes-csv", args.sizes_csv)
        _one_file_each(("input", source), *outputs)
        self._windows_fp = (
            open(args.windows_out, "w", encoding="utf-8", buffering=-1 if source else 1)
            if args.windows_out
            else None
        )
        self._sizes_fp = _open_sizes_csv(args.sizes_csv) if args.sizes_csv else None

    def process(self, event: Event) -> None:
        """The callback for ``replay`` or the server: window, emit what closes."""
        if self.failure is not None:
            raise StopServing
        record = self._strategy.process_event(event)
        if record is not None:
            self.emit(record)

    def flush(self) -> None:
        """Emit the window still open at the end of the stream."""
        final = self._strategy.flush()
        if final is not None:
            self.emit(final)

    def emit(self, record: WindowRecord) -> None:
        if self._windows_fp is not None:
            try:
                self._windows_fp.write(window_record_to_json(record) + "\n")
            except OSError as exc:
                self._fail(exc)
        if self._sizes_fp is not None:
            try:
                self._sizes_fp.write(_sizes_line(record))
            except OSError as exc:
                self._fail(exc)
        size = record.size
        self.windows += 1
        if size < self._size_min:
            self._size_min = size
        if size > self._size_max:
            self._size_max = size
        self._coverage_sum += record.coverage
        self._forced += record.force_closed
        if self.verbose:
            self.pending.append(_summary_line(record))

    def publish(self) -> None:
        """Write the pending lines to stderr with one call."""
        if self.pending:
            text = "".join(self.pending)
            self.pending.clear()
            try:
                sys.stderr.write(text)
            except OSError as exc:
                self._fail(exc)

    def close(self) -> None:
        """Close every output, also after one fails to."""
        for fp in (self._windows_fp, self._sizes_fp):
            if fp is not None:
                try:
                    fp.close()
                except OSError as exc:
                    self._fail(exc)

    def _fail(self, exc: OSError) -> None:
        if self.failure is None:
            self.failure = exc
            if self._stop is not None:
                self._stop.set()

    def print_summary(self, delivered: int, dropped: int) -> None:
        n = self.windows
        line = _line(events=delivered, dropped=dropped, windows=n)
        if n:
            line += " " + _line(
                # the windows partition the delivered events
                mean_size=delivered / n,
                min_size=self._size_min,
                max_size=self._size_max,
                mean_coverage=self._coverage_sum / n,
                forced=self._forced,
            )
        print(line)


# --- subcommands ------------------------------------------------------------


def _generate(args: argparse.Namespace) -> tuple:
    """Spec, events, annotations of ``--scenario`` or ``--spec``; ``--seed`` reseeds."""
    from . import driftgen

    if args.scenario:
        spec = driftgen.builtin_scenario(args.scenario)
    else:
        spec = driftgen.spec_from_json(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    return (spec, *driftgen.generate(spec))


def cmd_estimate(args: argparse.Namespace) -> int:
    source = _make_source(args)
    view = _make_view(args)
    stats = AbundanceStats()

    def sink(event) -> None:
        for species in view.extract(event):
            stats.observe(species)

    replay_stats = replay(source, sink)
    for species in view.flush_cases(None):
        stats.observe(species)
    counts = _line(n=stats.n, species=stats.s_n, f1=stats.f1, f2=stats.f2)
    totals = _line(events=replay_stats.delivered, dropped=replay_stats.dropped)
    chao1, completeness, coverage = estimates(stats)
    estimated = _line(chao1=chao1, completeness=completeness, coverage=coverage)
    print(counts, estimated, totals)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    source = _make_source(args)
    writer = _RecordWriter(_make_strategy(args), verbose=args.verbose)

    def sink(event: Event) -> None:
        writer.process(event)
        writer.publish()  # stderr gets each window's line as it closes

    # a missing or unreadable input fails here, before the outputs are truncated
    open(source.path, "rb").close()
    try:
        writer.open_outputs(args, source.path)
        with contextlib.suppress(StopServing):  # an output failed: read no further
            replay_stats = replay(source, sink if args.verbose else writer.process)
        writer.flush()
        writer.publish()
    finally:
        writer.close()
    if writer.failure is not None:
        raise writer.failure
    writer.print_summary(replay_stats.delivered, replay_stats.dropped)
    return 0


def cmd_driftgen(args: argparse.Namespace) -> int:
    from . import driftgen

    annotations_path = args.annotations or args.out + ".annotations.json"
    try:
        if (args.scenario is None) == (args.spec is None):
            raise ValueError("give exactly one of --scenario or --spec")
        _one_file_each(("--spec", args.spec), ("--out", args.out), ("", annotations_path))
    except ValueError as exc:
        print(f"driftgen: {exc}", file=sys.stderr)
        return 2
    try:
        spec, events, annotations = _generate(args)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f"driftgen: bad spec: {exc}", file=sys.stderr)
        return 2
    if _source_kind(args.out, args.out_format) == FILE_CSV:
        write_events_csv(events, args.out)
    else:
        write_events_jsonl(events, args.out)
    driftgen.write_annotations(annotations, annotations_path)
    print(
        _line(events=len(events), cases=spec.total_cases, kind=spec.kind),
        _line(seed=spec.seed, drift_case_indices=list(annotations.drift_case_indices)),
        _line(out=args.out, annotations=annotations_path),
    )
    return 0


def cmd_bench_latency(args: argparse.Namespace) -> int:
    from . import bench

    rows = bench.measure_latency(args.sizes, trials=args.trials)
    r2 = bench.linear_fit_r2(
        [r.window_size for r in rows], [r.min_seconds for r in rows]
    )
    for row in rows:
        print(_line(**asdict(row)))
    print(_line(latency_fit_r2=r2))
    if args.outdir:
        _write_table(args.outdir, "latency.csv", rows)
    return 0


def cmd_bench_drift(args: argparse.Namespace) -> int:
    from . import bench

    _, events, annotations = _generate(args)
    records = bench.run_stream(events, _make_strategy(args))
    first_drift = annotations.drift_case_indices[0]
    drift_window = bench.first_window_at_case(records, first_drift)
    sizes = [r.size for r in records]
    report = bench.drift_adaptation_stats(
        sizes, drift_window, before=args.before, after=args.after
    )
    print(_line(windows=len(sizes), **asdict(report)))
    if args.outdir:
        with _open_sizes_csv(_outpath(args.outdir, "window_sizes.csv")) as fp:
            fp.writelines(map(_sizes_line, records))
        _write_table(args.outdir, "drift_report.csv", [report])
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    from . import bench

    spec, events, annotations = _generate(args)
    summaries = []
    for name in ("adaptive", COUNT_TUMBLING, LANDMARK):
        strategy = _make_strategy(argparse.Namespace(**vars(args) | {"strategy": name}))
        records = bench.run_stream(events, strategy)
        summary = bench.summarize_accuracy(
            name, records, annotations.pool_per_case, spec.pools
        )
        summaries.append(summary)
    print(f"{'strategy':<16} {'windows':>7} {'precision':>9} {'recall':>7} {'f1':>7}")
    for s in summaries:
        print(
            f"{s.strategy:<16} {s.windows:>7} {s.mean_precision:>9.4f} "
            f"{s.mean_recall:>7.4f} {s.mean_f1:>7.4f}"
        )
    if args.outdir:
        _write_table(args.outdir, "comparison.csv", summaries)
    return 0


def cmd_listen(
    args: argparse.Namespace, stop_event: threading.Event | None = None
) -> int:
    import signal

    strategy = _make_strategy(args)
    if stop_event is None:
        stop_event = threading.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, lambda *_: stop_event.set())
    # an output that fails stops the run as a signal does
    writer = _RecordWriter(strategy, verbose=not args.quiet, stop=stop_event)
    try:
        server = StreamServer(
            writer.process,
            host=args.host,
            port=args.port,
            strict_order=not args.lenient,
            on_batch=writer.publish,
        )
    except (OSError, OverflowError) as exc:  # OverflowError: port outside 0-65535
        print(f"listen: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    try:
        writer.open_outputs(args)
        server.start()
        host, port = server.address
        print(f"listening on {host}:{port}", file=sys.stderr, flush=True)
        stop_event.wait()
    finally:
        stats = server.stop()
        writer.flush()
        writer.close()
        if writer.failure is not None:  # after the lines of the windows it counts
            writer.pending.append(f"listen: output failed: {writer.failure}\n")
        # the open window's line, and those of a read that StopServing cut short
        writer.publish()
    writer.print_summary(stats.delivered, stats.dropped)
    return 0 if writer.failure is None else 1


# --- parser wiring ----------------------------------------------------------


def build_parsers() -> tuple[
    argparse.ArgumentParser, dict[tuple[str, ...], argparse.ArgumentParser]
]:
    parser = argparse.ArgumentParser(
        prog="coverwin",
        description=(
            "Adaptive stream windowing that closes a window once its species "
            "coverage says the window is representative."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    table: dict[tuple[str, ...], argparse.ArgumentParser] = {}

    def command(subs, key, func, help) -> argparse.ArgumentParser:
        """Register the parser for ``key`` with its --config flag and func."""
        p = subs.add_parser(
            key[-1], help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.add_argument(
            "--config",
            action=_ConfigFile,
            default=None,
            metavar="FILE",
            help="key = value file supplying defaults for this command's flags",
        )
        p.set_defaults(func=func)
        table[key] = p
        return p

    p = command(subs, ("analyze",), cmd_analyze, "window an event log file")
    _add_source_flags(p)
    _add_view_flags(p)
    _add_strategy_flags(p)
    _add_output_flags(p)
    p.add_argument(
        "--verbose",
        action="store_true",
        help="print a JSON summary of every closed window to stderr",
    )

    p = command(subs, ("estimate",), cmd_estimate, "whole-file abundance estimates")
    _add_source_flags(p)
    _add_view_flags(p)

    p = command(subs, ("driftgen",), cmd_driftgen, "generate a drifting event stream")
    p.add_argument(
        "--scenario",
        choices=SCENARIO_NAMES,
        default=None,
        help="built-in scenario",
    )
    p.add_argument("--spec", default=None, metavar="FILE", help="JSON drift spec")
    p.add_argument(
        "--seed", type=int, default=None, help="override the spec seed" + _SEED_NOTE
    )
    p.add_argument("--out", required=True, metavar="FILE", help="output event log")
    p.add_argument(
        "--out-format",
        choices=("auto", *SOURCE_KINDS),
        default="auto",
        help="output format; auto picks by extension",
    )
    p.add_argument(
        "--annotations",
        default=None,
        metavar="FILE",
        help="ground-truth sidecar path (default: OUT.annotations.json)",
    )

    p = subs.add_parser("bench", help="measure the engine")
    bench_subs = p.add_subparsers(dest="bench_mode", required=True)

    b = command(
        bench_subs, ("bench", "latency"), cmd_bench_latency, "per-window-size latency"
    )
    b.add_argument(
        "--sizes",
        type=_int_list,
        default=[50, 100, 150, 200, 250, 300, 350, 400, 450, 500],
        help="comma-separated window sizes",
    )
    b.add_argument("--trials", type=int, default=7, help="timed trials per size")
    _add_outdir_flag(b, "latency.csv")

    b = command(
        bench_subs,
        ("bench", "drift"),
        cmd_bench_drift,
        "window-size reaction around a drift",
    )
    _add_scenario_flags(b)
    b.add_argument("--before", type=int, default=10, help="windows before the drift")
    b.add_argument("--after", type=int, default=20, help="windows after the drift")
    _add_view_flags(b)
    _add_strategy_flags(b)
    # The default 60 s time_tumbling window leaves the small scenarios 15-26
    # windows, too few for the default span of 10 windows before the drift
    # and 20 from it; 15 s gives each of them 60 or more.
    b.set_defaults(duration=15_000)
    _add_outdir_flag(b, "window_sizes.csv and drift_report.csv")

    b = command(
        bench_subs,
        ("bench", "compare"),
        cmd_bench_compare,
        "adaptive vs count vs landmark on one generated log",
    )
    _add_scenario_flags(b)
    _add_view_flags(b)
    b.set_defaults(view="directly_follows")
    _add_rule_flags(b, timed=False)
    # Accuracy is scored on directly-follows pairs, so the close criterion
    # must demand pair-level representativeness; the global floor of 0.5 is
    # too permissive for that and would dominate every close decision.
    b.set_defaults(mt=0.75)
    _add_outdir_flag(b, "comparison.csv")

    p = command(
        subs, ("listen",), cmd_listen, "ingest events over TCP until interrupted"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=0, help="bind port; 0 picks a free one")
    p.add_argument(
        "--lenient",
        action="store_true",
        help="drop out-of-order events silently instead of answering ERR",
    )
    _add_view_flags(p)
    _add_strategy_flags(p)
    _add_output_flags(p)
    p.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-window JSON lines on stderr",
    )

    return parser, table


# --- config file ------------------------------------------------------------


def load_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; # starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fp:
        for line_no, raw in enumerate(fp, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(action: argparse.Action, text: str):
    if isinstance(action, argparse._StoreTrueAction):
        lowered = text.lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise ValueError(f"expected a boolean for {action.dest}, got {text!r}")
    if action.type is not None:
        return action.type(text)
    return text


class _ConfigFile(argparse.Action):
    """``--config FILE``: the file's values become the command's defaults.

    They take effect when the flag is parsed, so a ``--help`` after it
    shows them; ``main`` parses again so that every flag on argv wins.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        _apply_config(parser, load_config_file(values))
        setattr(namespace, self.dest, values)


def _apply_config(parser: argparse.ArgumentParser, values: dict[str, str]) -> None:
    optional = [a for a in parser._actions if a.option_strings and not a.required]
    by_dest = {a.dest: a for a in optional if a.dest not in ("help", "config")}
    overrides = {}
    for key, text in values.items():
        action = by_dest.get(key)
        if action is None:
            raise ValueError(f"unknown config key: {key}")
        if action.choices is not None and text not in action.choices:
            raise ValueError(
                f"config key {key}: {text!r} is not one of {sorted(action.choices)}"
            )
        overrides[key] = _coerce(action, text)
    parser.set_defaults(**overrides)


def _complain(message: str, status: int) -> int:
    """Print ``message`` to stderr and return ``status``, also when stderr is
    the output that failed: then there is nowhere left to say it."""
    with contextlib.suppress(OSError):
        print(message, file=sys.stderr)
    return status


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, _ = build_parsers()
    # argparse acts on flags in argv order; help goes last, after --config
    argv = sorted(argv, key=lambda arg: arg in ("-h", "--help"))
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # the file set defaults, so this parse lets the flags on argv win
            args = parser.parse_args(argv)
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        return _complain(f"coverwin: config error: {exc}", 2)
    try:
        return args.func(args)
    except (ParseError, OrderingError) as exc:
        return _complain(f"coverwin: input error: {exc}", 1)
    except (OSError, ValueError) as exc:
        return _complain(f"coverwin: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
