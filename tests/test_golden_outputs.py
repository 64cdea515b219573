"""Byte identity of the commands' outputs, pinned by SHA-256 digests.

Each run is in-process ``coverwin analyze --windows-out --sizes-csv`` on a
built-in scenario written as JSONL.  The SHA-256 of the windows JSONL, of
the sizes CSV and of the summary line must match
``tests/data/golden_outputs.json``.  The runs are the six small scenarios
x four views x four strategies, plus ``throughput`` with the two flag sets
perfbench runs it with.  Each run is made again with ``--verbose``, which
must leave those three outputs as they were; the SHA-256 of its window
lines on stderr is pinned under ``verbose/`` and the run's name.  Outputs
do not depend on ``PYTHONHASHSEED``.

The same file pins, per small scenario, ``bench drift`` under each
strategy, ``bench compare`` with the default seed and with ``--seed 3``
and ``estimate`` under each view: exit code, stdout, stderr and every file
written to ``--outdir``.  It also pins the ``--help`` of every parser at
80 columns, as this Python's argparse formats them (3.11; later versions
format some lines differently).  ``bench drift`` runs ``time_tumbling``
with its own 15 s ``--duration`` default, which gives every small
scenario the windows that the default span around the drift needs.

A change that is meant to alter these outputs regenerates the digests with

    PYTHONPATH=src python tests/test_golden_outputs.py

which prints the keys it changed, added and removed, and says in
CHANGES.md which outputs moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from coverwin import driftgen
from coverwin.cli import main
from coverwin.stream_io import write_events_jsonl
from coverwin.views import VIEW_KINDS

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "golden_outputs.json")

SMALL_SCENARIOS = ("sudden", "gradual", "recurring", "incremental", "steady3", "steady5")
VIEWS = {
    "ngram1": ("--view", "activity_ngram", "--ngram", "1"),
    "ngram2": ("--view", "activity_ngram", "--ngram", "2"),
    "directly_follows": ("--view", "directly_follows"),
    "trace_variant": ("--view", "trace_variant"),
}
STRATEGIES = {
    "adaptive": ("--strategy", "adaptive"),
    "count20": ("--strategy", "count_tumbling", "--count", "20"),
    "time30000": ("--strategy", "time_tumbling", "--duration", "30000"),
    "landmarkA": ("--strategy", "landmark", "--landmark-activity", "A"),
}
# the flag sets perfbench's file_small_windows and file_count_baseline use
THROUGHPUT_FLAGS = {
    "ngram1": ("--view", "activity_ngram", "--ngram", "1"),
    "count20": ("--strategy", "count_tumbling", "--count", "20"),
}
DRIFT_STRATEGIES = ("adaptive", "count_tumbling", "time_tumbling", "landmark")
COMPARE_SEEDS = {"seed_default": (), "seed3": ("--seed", "3")}
PARSERS = (
    (),
    ("analyze",),
    ("estimate",),
    ("driftgen",),
    ("bench",),
    ("bench", "latency"),
    ("bench", "drift"),
    ("bench", "compare"),
    ("listen",),
)


def runs_of(scenario: str) -> dict[str, tuple[str, ...]]:
    """Run name -> analyze flags for one scenario."""
    if scenario == "throughput":
        return {f"throughput/{k}": flags for k, flags in THROUGHPUT_FLAGS.items()}
    return {
        f"{scenario}/{v}/{s}": vflags + sflags
        for v, vflags in VIEWS.items()
        for s, sflags in STRATEGIES.items()
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def analyze_digests(argv: list[str], windows: str, sizes: str) -> dict[str, str]:
    """Digests of the windows JSONL, sizes CSV, summary line and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code == 0, argv
    with open(windows, "rb") as fp:
        windows_digest = _sha256(fp.read())
    with open(sizes, "rb") as fp:
        sizes_digest = _sha256(fp.read())
    return {
        "windows": windows_digest,
        "sizes": sizes_digest,
        "summary": _sha256(stdout.getvalue().encode("utf-8")),
        "stderr": _sha256(stderr.getvalue().encode("utf-8")),
    }


def scenario_digests(scenario: str, workdir: str) -> dict[str, dict[str, str]]:
    """Run name -> digests of windows JSONL, sizes CSV and summary line, and
    ``verbose/`` + run name -> digest of the ``--verbose`` window lines."""
    events, _ = driftgen.generate(driftgen.builtin_scenario(scenario))
    path = os.path.join(workdir, f"{scenario}.jsonl")
    windows = os.path.join(workdir, "windows.jsonl")
    sizes = os.path.join(workdir, "sizes.csv")
    write_events_jsonl(events, path)
    out: dict[str, dict[str, str]] = {}
    for name, flags in runs_of(scenario).items():
        argv = ["analyze", path, *flags, "--windows-out", windows, "--sizes-csv", sizes]
        plain = analyze_digests(argv, windows, sizes)
        verbose = analyze_digests([*argv, "--verbose"], windows, sizes)
        window_lines = verbose.pop("stderr")
        assert plain.pop("stderr") == _sha256(b""), name
        assert verbose == plain, name
        out[name] = plain
        out[f"verbose/{name}"] = {"stderr": window_lines}
    return out


def command_runs_of(scenario: str, path: str) -> dict[str, list[str]]:
    """Run name -> argv of bench drift, bench compare and estimate."""
    runs = {}
    for s in DRIFT_STRATEGIES:
        runs[f"bench_drift/{scenario}/{s}"] = [
            "bench", "drift", "--scenario", scenario, "--strategy", s
        ]
    for name, flags in COMPARE_SEEDS.items():
        runs[f"bench_compare/{scenario}/{name}"] = [
            "bench", "compare", "--scenario", scenario, *flags
        ]
    for view in VIEW_KINDS:
        runs[f"estimate/{scenario}/{view}"] = ["estimate", path, "--view", view]
    return runs


def run_digests(argv: list[str], outdir: str | None = None) -> dict[str, object]:
    """Exit code and digests of stdout, stderr and each file in ``outdir``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    if outdir is not None:
        os.makedirs(outdir)
        argv = [*argv, "--outdir", outdir]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    out: dict[str, object] = {
        "exit": code,
        "stdout": _sha256(stdout.getvalue().encode("utf-8")),
        "stderr": _sha256(stderr.getvalue().encode("utf-8")),
    }
    for name in sorted(os.listdir(outdir)) if outdir is not None else ():
        with open(os.path.join(outdir, name), "rb") as fp:
            out[name] = _sha256(fp.read())
    return out


def command_digests(scenario: str, workdir: str) -> dict[str, dict[str, object]]:
    events, _ = driftgen.generate(driftgen.builtin_scenario(scenario))
    path = os.path.join(workdir, f"{scenario}.jsonl")
    write_events_jsonl(events, path)
    out = {}
    for name, argv in command_runs_of(scenario, path).items():
        outdir = None
        if argv[0] == "bench":
            outdir = os.path.join(workdir, name.replace("/", "_"))
        out[name] = run_digests(argv, outdir)
    return out


def help_digests() -> dict[str, dict[str, object]]:
    """``--help`` of every parser, formatted for 80 columns."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        return {
            "help/" + " ".join(("coverwin", *cmd)): run_digests([*cmd, "--help"])
            for cmd in PARSERS
        }
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def load_golden() -> dict[str, dict[str, object]]:
    with open(GOLDEN, encoding="utf-8") as fp:
        return json.load(fp)


def test_golden_file_covers_every_run():
    analyze = {name for sc in (*SMALL_SCENARIOS, "throughput") for name in runs_of(sc)}
    verbose = {f"verbose/{name}" for name in analyze}
    commands = {name for sc in SMALL_SCENARIOS for name in command_runs_of(sc, "")}
    helps = {"help/" + " ".join(("coverwin", *cmd)) for cmd in PARSERS}
    assert set(load_golden()) == analyze | verbose | commands | helps
    assert len(analyze) == len(verbose) == 6 * 4 * 4 + 2
    assert len(commands) == 6 * (4 + 2 + 3)
    assert len(helps) == 9


@pytest.mark.parametrize("scenario", [*SMALL_SCENARIOS, "throughput"])
def test_analyze_outputs_match_golden_digests(tmp_path, scenario):
    golden = load_golden()
    got = scenario_digests(scenario, str(tmp_path))
    assert got == {name: golden[name] for name in got}


@pytest.mark.parametrize("scenario", SMALL_SCENARIOS)
def test_command_outputs_match_golden_digests(tmp_path, scenario):
    golden = load_golden()
    got = command_digests(scenario, str(tmp_path))
    assert got == {name: golden[name] for name in got}


def test_help_matches_golden_digests():
    golden = load_golden()
    got = help_digests()
    assert got == {name: golden[name] for name in got}


def digest_changes(old: dict, new: dict) -> dict[str, list[str]]:
    """The keys of ``new`` that differ from ``old``, are new, or are gone."""
    return {
        "changed": sorted(k for k in new.keys() & old.keys() if new[k] != old[k]),
        "added": sorted(new.keys() - old.keys()),
        "removed": sorted(old.keys() - new.keys()),
    }


def test_digest_changes_names_each_moved_key():
    old = {"a": {"x": "1"}, "b": {"x": "2"}, "c": {"x": "3"}}
    new = {"a": {"x": "1"}, "b": {"x": "9"}, "d": {"x": "4"}}
    assert digest_changes(old, new) == {
        "changed": ["b"],
        "added": ["d"],
        "removed": ["c"],
    }
    assert digest_changes(old, old) == {"changed": [], "added": [], "removed": []}


def regenerate() -> None:
    """Rewrite the golden file and report which keys moved against the old one."""
    old = load_golden() if os.path.exists(GOLDEN) else {}
    digests: dict[str, dict[str, object]] = {}
    with tempfile.TemporaryDirectory() as workdir:
        for scenario in (*SMALL_SCENARIOS, "throughput"):
            digests.update(scenario_digests(scenario, workdir))
        for scenario in SMALL_SCENARIOS:
            digests.update(command_digests(scenario, workdir))
    digests.update(help_digests())
    with open(GOLDEN, "w", encoding="utf-8") as fp:
        json.dump(digests, fp, indent=1, sort_keys=True)
        fp.write("\n")
    print(f"wrote {len(digests)} runs to {GOLDEN}", file=sys.stderr)
    for kind, keys in digest_changes(old, digests).items():
        print(f"{kind}: {len(keys)}", file=sys.stderr)
        for key in keys:
            print(f"  {key}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
