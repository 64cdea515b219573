"""Byte identity of ``analyze``'s outputs, pinned by SHA-256 digests.

Each run is in-process ``coverwin analyze --windows-out --sizes-csv`` on a
built-in scenario written as JSONL.  The SHA-256 of the windows JSONL, of
the sizes CSV and of the summary line must match
``tests/data/golden_outputs.json``.  The runs are the six small scenarios
x four views x four strategies, plus ``throughput`` with the two flag sets
perfbench runs it with.  Outputs do not depend on ``PYTHONHASHSEED``.

A change that is meant to alter these outputs regenerates the digests with

    PYTHONPATH=src python tests/test_golden_outputs.py

and says in CHANGES.md which outputs moved and why.
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


def scenario_digests(scenario: str, workdir: str) -> dict[str, dict[str, str]]:
    """Run name -> digests of windows JSONL, sizes CSV and summary line."""
    events, _ = driftgen.generate(driftgen.builtin_scenario(scenario))
    path = os.path.join(workdir, f"{scenario}.jsonl")
    windows = os.path.join(workdir, "windows.jsonl")
    sizes = os.path.join(workdir, "sizes.csv")
    write_events_jsonl(events, path)
    out: dict[str, dict[str, str]] = {}
    for name, flags in runs_of(scenario).items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            outputs = ["--windows-out", windows, "--sizes-csv", sizes]
            code = main(["analyze", path, *flags, *outputs])
        assert code == 0, name
        with open(windows, "rb") as fp:
            windows_digest = _sha256(fp.read())
        with open(sizes, "rb") as fp:
            sizes_digest = _sha256(fp.read())
        out[name] = {
            "windows": windows_digest,
            "sizes": sizes_digest,
            "summary": _sha256(stdout.getvalue().encode("utf-8")),
        }
    return out


def load_golden() -> dict[str, dict[str, str]]:
    with open(GOLDEN, encoding="utf-8") as fp:
        return json.load(fp)


def test_golden_file_covers_every_run():
    expected = {name for sc in (*SMALL_SCENARIOS, "throughput") for name in runs_of(sc)}
    assert set(load_golden()) == expected
    assert len(expected) == 6 * 4 * 4 + 2


@pytest.mark.parametrize("scenario", [*SMALL_SCENARIOS, "throughput"])
def test_analyze_outputs_match_golden_digests(tmp_path, scenario):
    golden = load_golden()
    got = scenario_digests(scenario, str(tmp_path))
    assert got == {name: golden[name] for name in got}


def regenerate() -> None:
    digests: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as workdir:
        for scenario in (*SMALL_SCENARIOS, "throughput"):
            digests.update(scenario_digests(scenario, workdir))
    with open(GOLDEN, "w", encoding="utf-8") as fp:
        json.dump(digests, fp, indent=1, sort_keys=True)
        fp.write("\n")
    print(f"wrote {len(digests)} runs to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
