"""Measurement phases of one benchmark run.

Untraced run (``--trace 0``): rounds of (cold start, ``analyze`` over the
whole file, ``listen`` blast) until the time is used up, each a fresh
``coverwin.cli`` process, while the speed probe times the machine on the
program's CPU; every timing is rescaled to the machine's full speed.
Traced run (``--trace 1``): the same pipeline in this process through
``cli.main`` and ``cli.cmd_listen``, with spans around every layer
boundary, plus one untraced paced ``listen`` process for the window
latency and the generator's lag.

Every program run is checked against the in-process reference; every
event a run read or was sent counts as attempted, and every attempted
event not found in order in the emitted windows counts as failed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from coverwin import cli
from coverwin.stream_io import ServerStats, write_events_jsonl

import gate
import spans
from workloads import PACED_EVENTS, PACED_RATE, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SENDER = Path(__file__).resolve().parent / "sender.py"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
PROBE = Path(__file__).resolve().parent / "probe.py"

# a run must end within 180 s even when a phase hangs: a failed phase ends
# the run, and no phase waits longer than these
PROGRAM_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 20.0
LISTEN_DEADLINE_S = 30.0


def _cpus() -> tuple[int | None, int | None]:
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[-1], cpus[0]) if len(cpus) > 1 else (None, None)


#: The program runs alone on the highest-numbered CPU; the harness and the
#: sender share the lowest.  Unpinned, ``analyze`` on a 2-CPU virtual machine ran
#: 30% slower on one CPU than on the other, and which one it got was chance.
PROGRAM_CPU, HARNESS_CPU = _cpus()


@contextlib.contextmanager
def pinned(cpu: int | None):
    """Run the block with the calling thread on ``cpu``; children inherit it."""
    if cpu is None:
        yield
        return
    old = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, old)


def pin_harness() -> None:
    """Move the calling thread, and threads and processes it starts later, off
    the program's CPU."""
    if HARNESS_CPU is not None:
        os.sched_setaffinity(0, {HARNESS_CPU})


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    # a fixed string-hash layout keeps dict timings from varying per process
    env["PYTHONHASHSEED"] = "0"
    return env


def start_program(args: list[str], paths: dict, **popen) -> subprocess.Popen:
    """``python -m coverwin.cli ARGS`` alone on the program's CPU."""
    argv = [sys.executable, str(LAUNCH), paths["peak"], *args]
    with pinned(PROGRAM_CPU):
        return subprocess.Popen(argv, cwd=ROOT, env=program_env(), **popen)


def reap(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for ``proc``, killing it after ``timeout`` seconds.

    The wait blocks in ``waitpid``: ``Popen.wait(timeout)`` polls with
    sleeps of up to 50 ms, which showed as 50 ms steps in the timings.
    """
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        return proc.wait()
    finally:
        killer.cancel()


def peak_mib(paths: dict) -> float | None:
    """The program's own peak RSS, as it recorded it at exit."""
    data = _read(paths["peak"])
    return int(data) / 1024.0 if data else None


#: The probe kernel's time on the CPU the figures are scaled to: about its
#: fastest time on a Xeon vCPU of a 2-CPU virtual machine, where its mean
#: over one program run read 0.52-0.65 ms under the load of other tenants.
PROBE_NOMINAL_S = 0.0003


class Speed:
    """How much the machine slowed the program's CPU, from the probe's samples."""

    def __init__(self, samples: Sequence[tuple[float, float]]) -> None:
        if not samples:
            raise RuntimeError("the speed probe took no samples")
        self.samples = samples

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe time within [t0, t1] over its nominal time."""
        inside = [d for t, d in self.samples if t0 <= t and t + d <= t1]
        mean = statistics.fmean(inside or [d for _, d in self.samples])
        return mean / PROBE_NOMINAL_S


class Probe:
    """The speed probe process on the program's CPU, for a ``with`` block."""

    def __enter__(self) -> "Probe":
        with pinned(PROGRAM_CPU):
            self.proc = subprocess.Popen(
                [sys.executable, str(PROBE)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        if self.proc.stdout.readline() != b"ready\n":
            self.__exit__()
            raise RuntimeError("the speed probe did not start")
        return self

    def stop(self) -> Speed:
        out, _ = self.proc.communicate(b"stop\n", timeout=PROGRAM_TIMEOUT_S)
        return Speed([tuple(pair) for pair in json.loads(out)])

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass
class Inputs:
    """One workload's generated files and references."""

    workload: Workload
    events_path: str
    one_path: str
    events: list
    full: gate.Reference
    one: gate.Reference
    generate_s: float

    @functools.cached_property
    def paced(self) -> gate.Reference:
        """Reference for the paced phase, which sends a prefix of the stream."""
        prefix = self.events[:PACED_EVENTS]
        return gate.build_reference(prefix, self.workload.make_strategy())


def make_inputs(workload: Workload, seed: int, workdir: str) -> Inputs:
    start = time.perf_counter()
    events = workload.events(seed)
    generate_s = time.perf_counter() - start
    events_path = os.path.join(workdir, "events.jsonl")
    one_path = os.path.join(workdir, "one.jsonl")
    write_events_jsonl(events, events_path)
    write_events_jsonl(events[:1], one_path)
    return Inputs(
        workload=workload,
        events_path=events_path,
        one_path=one_path,
        events=events,
        full=gate.build_reference(events, workload.make_strategy()),
        one=gate.build_reference(events[:1], workload.make_strategy()),
        generate_s=generate_s,
    )


@dataclass
class Tally:
    """Outcome of all program runs in one benchmark run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    rss_mib: list[float] = field(default_factory=list)

    def add(
        self, phase: str, attempted: int, found: int, problems: Sequence[str]
    ) -> None:
        self.attempted += attempted
        self.failed += attempted - found
        self.problems.extend(f"{phase}: {p}" for p in problems)

    @property
    def correct(self) -> bool:
        return not self.problems


def _outputs(workdir: str, tag: str, workload: Workload) -> tuple[list[str], dict]:
    paths = {
        "sizes": os.path.join(workdir, f"{tag}.sizes.csv"),
        "windows": os.path.join(workdir, f"{tag}.windows.jsonl"),
        "stdout": os.path.join(workdir, f"{tag}.stdout"),
        "stderr": os.path.join(workdir, f"{tag}.stderr"),
        "peak": os.path.join(workdir, f"{tag}.peak"),
    }
    for path in paths.values():
        # a program that fails to write must not be judged on an older file
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    flags = [*workload.flags, "--sizes-csv", paths["sizes"]]
    if workload.windows_out:
        flags += ["--windows-out", paths["windows"]]
    return flags, paths


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fp:
            return fp.read()
    except FileNotFoundError:
        return b""


def _verdict(ref: gate.Reference, paths: dict, workload: Workload) -> gate.Verdict:
    return gate.check(
        ref,
        _read(paths["stdout"]),
        _read(paths["sizes"]),
        _read(paths["windows"]) if workload.windows_out else None,
    )


def _judge(
    ref: gate.Reference, paths: dict, workload: Workload, code: int, tally: Tally
) -> tuple[int, tuple[str, ...]]:
    """Gate one finished program run; note its peak RSS."""
    verdict = _verdict(ref, paths, workload)
    problems = verdict.problems + ((f"exit {code}",) if code else ())
    peak = peak_mib(paths)
    if peak is None:
        problems += ("no peak RSS recorded",)
    else:
        tally.rss_mib.append(peak)
    return verdict.found, problems


def run_analyze(
    inputs: Inputs, workdir: str, tally: Tally, one_event: bool = False
) -> tuple[float, float]:
    """One ``analyze`` process; returns its launch and exit times."""
    w = inputs.workload
    tag = "one" if one_event else "analyze"
    ref = inputs.one if one_event else inputs.full
    flags, paths = _outputs(workdir, tag, w)
    args = ["analyze", inputs.one_path if one_event else inputs.events_path, *flags]
    with open(paths["stdout"], "wb") as out, open(paths["stderr"], "wb") as err:
        start = time.monotonic()
        proc = start_program(args, paths, stdout=out, stderr=err)
        code = reap(proc, PROGRAM_TIMEOUT_S)
        end = time.monotonic()
    tally.add(tag, len(ref.events), *_judge(ref, paths, w, code, tally))
    return start, end


@dataclass
class ListenResult:
    ready_s: float
    #: events through the last regular window
    events: int
    #: first byte sent, and the last regular window's line
    first: float
    last: float
    #: per regular window: emission minus the due time of its last event
    latencies_ms: list[float]
    lag_ms_max: float


class _StderrReader(threading.Thread):
    """Stamps every stderr line of ``listen`` on the monotonic clock."""

    def __init__(self, stream, last_index: int) -> None:
        super().__init__(daemon=True)
        self.stream = stream
        self.last_index = last_index
        self.port: int | None = None
        self.ready_at = float("nan")
        self.ready = threading.Event()
        self.done = threading.Event()
        self.windows: dict[int, float] = {}
        self.other: list[bytes] = []

    def run(self) -> None:
        for raw in self.stream:
            stamp = time.monotonic()
            if raw.startswith(b"{"):
                try:
                    obj = json.loads(raw)
                    index, forced = obj["index"], obj["force_closed"]
                except (ValueError, KeyError, TypeError):
                    self.other.append(raw)
                    continue
                if not forced:
                    self.windows[index] = stamp
                    if index >= self.last_index:
                        self.done.set()
            elif raw.startswith(b"listening on") and self.port is None:
                self.port = int(raw.rsplit(b":", 1)[1])
                self.ready_at = stamp
                self.ready.set()
            else:
                self.other.append(raw)
        self.ready.set()
        self.done.set()


def _start_sender(events_path: str, count: int, port: int, rate: float):
    argv = [sys.executable, str(SENDER), "--events", events_path]
    argv += ["--count", str(count), "--port", str(port), "--rate", repr(rate)]
    with pinned(HARNESS_CPU):
        return subprocess.Popen(
            argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )


def _finish_sender(sender: subprocess.Popen, deadline: float) -> dict | None:
    try:
        out, err = sender.communicate(timeout=max(0.1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sender.kill()
        sender.communicate()
        return None
    if sender.returncode != 0:
        return None
    return json.loads(out.decode().strip().splitlines()[-1])


def run_listen(
    inputs: Inputs, workdir: str, tally: Tally, paced: bool
) -> ListenResult | None:
    """One ``listen`` process fed by one sender process.

    SIGINT goes out only after the last expected regular window's line
    has appeared and the sender has had its drain reply, so nothing the
    sender wrote is still in flight when the server stops.  Past the
    deadline the server is stopped anyway and what is missing counts as
    failed.
    """
    w = inputs.workload
    ref = inputs.paced if paced else inputs.full
    count = len(ref.events)
    rate = PACED_RATE if paced else 0.0
    tag = "paced" if paced else "blast"
    flags, paths = _outputs(workdir, tag, w)
    last = ref.last_regular
    with open(paths["stdout"], "wb") as out:
        start = time.monotonic()
        proc = start_program(
            ["listen", "--port", "0", *flags], paths, stdout=out, stderr=subprocess.PIPE
        )
        reader = _StderrReader(proc.stderr, last)
        reader.start()
        report = None
        if reader.ready.wait(READY_TIMEOUT_S) and reader.port is not None:
            deadline = time.monotonic() + LISTEN_DEADLINE_S
            sender = _start_sender(inputs.events_path, count, reader.port, rate)
            report = _finish_sender(sender, deadline)
            if last >= 0:
                reader.done.wait(max(0.0, deadline - time.monotonic()))
        proc.send_signal(signal.SIGINT)
        code = reap(proc, PROGRAM_TIMEOUT_S)
        reader.join(PROGRAM_TIMEOUT_S)
        proc.stderr.close()
    found, problems = _judge(ref, paths, w, code, tally)
    if report is None:
        problems += ("sender failed or missed its deadline",)
    elif report["err_lines"]:
        problems += (f"{report['err_lines']} ERR replies to events",)
    if reader.other:
        problems += (f"unexpected stderr: {reader.other[0][:200]!r}",)
    tally.add(f"listen-{tag}", count, found, problems)
    if report is None or last < 0 or last not in reader.windows:
        return None
    t0 = report["t0"]
    latencies = [
        (reader.windows[k] - (t0 + ref.ends[k] / rate)) * 1000.0
        for k in range(last + 1)
        if k in reader.windows
    ] if paced else []
    return ListenResult(
        ready_s=reader.ready_at - start,
        events=ref.ends[last] + 1,
        first=report["t_first"],
        last=reader.windows[last],
        latencies_ms=latencies,
        lag_ms_max=report["lag_ms_max"],
    )


# --- untraced run -------------------------------------------------------------


def untraced(inputs: Inputs, workdir: str, seconds: float) -> tuple[Tally, dict]:
    pin_harness()
    tally = Tally()
    # (events, start, end) of every timed program run, by metric
    setup: list[tuple[int, float, float]] = []
    analyze: list[tuple[int, float, float]] = []
    listen: list[tuple[int, float, float]] = []
    ready: list[float] = []
    events = len(inputs.full.events)
    start = time.monotonic()
    with Probe() as probe:
        while True:
            round_start = time.monotonic()
            setup.append((1, *run_analyze(inputs, workdir, tally, one_event=True)))
            analyze.append((events, *run_analyze(inputs, workdir, tally)))
            blast = run_listen(inputs, workdir, tally, paced=False)
            if blast is not None:
                listen.append((blast.events, blast.first, blast.last))
                ready.append(blast.ready_s)
            now = time.monotonic()
            if not tally.correct or now + (now - round_start) > start + seconds:
                break
        speed = probe.stop()

    # Each program run's wall time is rescaled by the probe's mean slowdown
    # over that run, and the metric is the median over the run's samples.
    # Unscaled, the same code read up to 35% apart from one minute to the
    # next on a shared 2-CPU virtual machine, with CPU time as far apart as
    # wall time: other tenants slow the CPU, not the process.
    def full_speed_s(runs: list[tuple[int, float, float]]) -> list[float]:
        return [(t1 - t0) / speed.slowdown(t0, t1) for _, t0, t1 in runs]

    def eps(runs: list[tuple[int, float, float]]) -> list[float]:
        return [n / s for (n, _, _), s in zip(runs, full_speed_s(runs))]

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    metrics = {
        "analyze_eps": (median(eps(analyze)), "events/s"),
        "listen_eps": (median(eps(listen)), "events/s"),
        "setup_s": (median(full_speed_s(setup)), "s"),
        "peak_rss_mb": (max(tally.rss_mib, default=0.0), "MiB"),
        "delivered_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    extra = {
        "rounds": len(setup),
        "measured_s": time.monotonic() - start,
        "analyze_eps": eps(analyze),
        "listen_eps": eps(listen),
        "setup": full_speed_s(setup),
        "wall_analyze_eps": [n / (t1 - t0) for n, t0, t1 in analyze],
        "wall_listen_eps": [n / (t1 - t0) for n, t0, t1 in listen],
        "wall_setup": [t1 - t0 for _, t0, t1 in setup],
        "slowdown": {
            kind: [speed.slowdown(t0, t1) for _, t0, t1 in runs]
            for kind, runs in (("setup", setup), ("analyze", analyze), ("listen", listen))
        },
        "probe_fastest_ms": min(d for _, d in speed.samples) * 1000.0,
        "probe_samples": len(speed.samples),
        "peak_rss_mib": tally.rss_mib,
        "listen_ready_s": statistics.median(ready) if ready else None,
    }
    return tally, {"metrics": metrics, "extra": extra}


# --- traced run ---------------------------------------------------------------


def _analyze_in_process(inputs: Inputs, workdir: str, tally: Tally, main) -> float:
    """``cli.main`` over the whole file in this process; returns wall time."""
    w = inputs.workload
    flags, paths = _outputs(workdir, "inproc", w)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = main(["analyze", inputs.events_path, *flags])
        elapsed = time.perf_counter() - start
    with open(paths["stdout"], "w", encoding="utf-8") as fp:
        fp.write(out.getvalue())
    verdict = _verdict(inputs.full, paths, w)
    problems = verdict.problems + ((f"exit {code}",) if code else ())
    tally.add("analyze-in-process", len(inputs.full.events), verdict.found, problems)
    return elapsed


def _listen_in_process(
    inputs: Inputs, workdir: str, tally: Tally, counters: spans.Counters
) -> None:
    """Traced ``cmd_listen`` in a thread of this process, fed a blast."""
    w = inputs.workload
    ref = inputs.full
    flags, paths = _outputs(workdir, "inproc-listen", w)
    parser, _ = cli.build_parsers()
    args = parser.parse_args(["listen", "--port", "0", "--quiet", *flags])
    stop = threading.Event()
    codes: list[int] = []
    out, err = io.StringIO(), io.StringIO()
    report = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        thread = threading.Thread(
            target=lambda: codes.append(cli.cmd_listen(args, stop)), daemon=True
        )
        thread.start()
        deadline = time.monotonic() + LISTEN_DEADLINE_S
        while counters.server is None and time.monotonic() < deadline:
            time.sleep(0.01)
        if counters.server is not None:
            port = counters.server.address[1]
            sender = _start_sender(inputs.events_path, len(ref.events), port, 0.0)
            report = _finish_sender(sender, deadline)
            while counters.closes.get("window", 0) + counters.closes.get(
                "baselines", 0
            ) <= ref.last_regular and time.monotonic() < deadline:
                time.sleep(0.01)
        stop.set()
        thread.join(PROGRAM_TIMEOUT_S)
    with open(paths["stdout"], "w", encoding="utf-8") as fp:
        fp.write(out.getvalue())
    verdict = _verdict(ref, paths, w)
    problems = verdict.problems
    if codes != [0]:
        problems += (f"exit {codes}",)
    if report is None:
        problems += ("sender failed or missed its deadline",)
    tally.add("listen-in-process", len(ref.events), verdict.found, problems)


def traced(inputs: Inputs, workdir: str, seconds: float) -> tuple[Tally, dict]:
    tally = Tally()
    start = time.monotonic()
    events = len(inputs.full.events)
    file_tracer, file_counters = spans.Tracer(), spans.Counters()
    traced_main = file_tracer.wrap("cli.main", cli.main)
    plain_s: list[float] = []
    traced_s: list[float] = []
    # the in-process pipeline, and the listen threads it starts, get the
    # program's CPU
    if PROGRAM_CPU is not None:
        os.sched_setaffinity(0, {PROGRAM_CPU})
    # alternate untraced and traced passes for half the time, at least once
    while True:
        plain_s.append(_analyze_in_process(inputs, workdir, tally, cli.main))
        with spans.instrument(file_tracer, file_counters):
            traced_s.append(_analyze_in_process(inputs, workdir, tally, traced_main))
        elapsed = time.monotonic() - start
        if not tally.correct or elapsed + plain_s[-1] + traced_s[-1] > seconds / 2:
            break
    runs = len(traced_s)
    file_spans = file_tracer.spans()
    n = events * runs

    tcp_tracer, tcp = spans.Tracer(), spans.Counters()
    with spans.instrument(tcp_tracer, tcp):
        _listen_in_process(inputs, workdir, tally, tcp)
    tcp_spans = tcp_tracer.spans()
    server = tcp.server.stats if tcp.server is not None else ServerStats()

    pin_harness()
    paced = run_listen(inputs, workdir, tally, paced=True)

    c = file_counters
    parse_calls = file_spans.get("stream_io.parse_event", {}).get("count", 0)
    window_closes = c.closes.get("window", 0) / runs
    cli_self = sum(
        file_spans.get(k, {}).get("self_s", 0.0) for k in ("cli.main", "cli.sink")
    )

    def per_event(name: str) -> float:
        return file_spans.get(name, {}).get("self_s", 0.0) / n * 1e6

    def per_call(table: dict, name: str) -> float:
        span = table.get(name)
        return span["busy_s"] / span["count"] * 1e6 if span else 0.0

    metrics = {
        "stream_io.replay.self_us_per_event": (per_event("stream_io.replay"), "us"),
        "stream_io.parse_event.us_per_call": (
            per_call(file_spans, "stream_io.parse_event"),
            "us",
        ),
        "stream_io.parse_event.errors": (parse_calls - len(c.parsed_at), "count"),
        "stream_io.window_record_to_json.us_per_record": (
            per_call(file_spans, "stream_io.window_record_to_json"),
            "us",
        ),
        "stream_io.window_record_to_json.bytes_per_record": (
            c.record_bytes / c.records if c.records else 0.0,
            "bytes",
        ),
        "cli.self_us_per_event": (cli_self / n * 1e6, "us"),
        "views.extract.us_per_call": (per_call(file_spans, "views.extract"), "us"),
        "views.flush_cases.us_per_call": (
            per_call(file_spans, "views.flush_cases"),
            "us",
        ),
        "views.open_cases_max": (c.open_cases_max, "count"),
        "views.species_per_event": (c.species / n, "count"),
        "abundance.observe.us_per_call": (
            per_call(file_spans, "abundance.observe"),
            "us",
        ),
        "abundance.coverage.us_per_call": (
            per_call(file_spans, "abundance.coverage"),
            "us",
        ),
        "abundance.observations": (
            file_spans.get("abundance.observe", {}).get("count", 0) / runs,
            "count",
        ),
        "window.process_event.self_us_per_event": (
            per_event("window.process_event"),
            "us",
        ),
        "window.closes": (window_closes, "count"),
        "window.mean_size": (
            c.closed_events / runs / window_closes if window_closes else 0.0,
            "events",
        ),
        "baselines.process_event.self_us_per_event": (
            per_event("baselines.process_event"),
            "us",
        ),
        "baselines.closes": (c.closes.get("baselines", 0) / runs, "count"),
        "stream_io.server.parse_event.us_per_call": (
            per_call(tcp_spans, "stream_io.parse_event"),
            "us",
        ),
        "stream_io.server.ingest_delay_ms_p50": (
            statistics.median(tcp.ingest_delays) * 1000.0 if tcp.ingest_delays else 0.0,
            "ms",
        ),
        "stream_io.server.backlog_max_events": (tcp.backlog_max, "events"),
        "stream_io.server.received": (server.received, "count"),
        "stream_io.server.delivered": (server.delivered, "count"),
        "stream_io.server.dropped": (server.dropped, "count"),
        "stream_io.server.parse_errors": (server.parse_errors, "count"),
        "listen_latency_p50_ms": (
            statistics.median(paced.latencies_ms) if paced else 0.0,
            "ms",
        ),
        "listen_latency_p99_ms": (
            percentile(paced.latencies_ms, 99) if paced else 0.0,
            "ms",
        ),
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "driftgen.generate_s": (inputs.generate_s, "s"),
        "harness.generator_lag_ms_max": (paced.lag_ms_max if paced else 0.0, "ms"),
        "harness.trace_overhead_ratio": (
            statistics.median(traced_s) / statistics.median(plain_s),
            "ratio",
        ),
    }
    report = {name: (float(value), unit) for name, (value, unit) in metrics.items()}
    extra = {
        "traced_passes": runs,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "spans": file_spans,
        "tcp_spans": tcp_spans,
        "measured_s": time.monotonic() - start,
    }
    return tally, {"metrics": report, "extra": extra}
