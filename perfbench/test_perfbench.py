"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The last test launches the real CLI for a few seconds per trace mode.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import harness  # noqa: E402
from coverwin.stream_io import write_events_jsonl  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workload_names_match_benchmark_json():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def _input_bytes(name: str, seed: int, tmp_path: Path) -> bytes:
    path = tmp_path / f"{name}-{seed}.jsonl"
    write_events_jsonl(WORKLOADS[name].events(seed), str(path))
    return path.read_bytes()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_fixes_the_input_bytes(name, tmp_path):
    first = _input_bytes(name, 7, tmp_path)
    assert first == _input_bytes(name, 7, tmp_path)
    assert first != _input_bytes(name, 8, tmp_path)


def test_slowdown_is_the_mean_probe_time_inside_the_run():
    nominal = harness.PROBE_NOMINAL_S
    samples = [(0.0, 4 * nominal), (1.0, nominal), (2.0, 3 * nominal)]
    speed = harness.Speed(samples)
    assert speed.slowdown(0.5, 2.5) == pytest.approx(2.0)
    # a run too short to hold a sample takes the mean of the whole run
    assert speed.slowdown(1.2, 1.3) == pytest.approx(8 / 3)


def _small_reference():
    workload = WORKLOADS["file_small_windows"]
    events = workload.events(3)[:300]
    return gate.build_reference(events, workload.make_strategy())


def test_gate_accepts_the_reference_itself():
    ref = _small_reference()
    verdict = gate.check(ref, ref.summary, ref.sizes_csv, ref.windows_jsonl)
    assert verdict.ok and verdict.found == len(ref.events)


def test_gate_rejects_a_tampered_record():
    ref = _small_reference()
    lines = ref.windows_jsonl.splitlines(keepends=True)
    record = json.loads(lines[2])
    record["events"][0]["activity"] = "Z"
    lines[2] = (json.dumps(record, separators=(",", ":")) + "\n").encode()
    verdict = gate.check(ref, ref.summary, ref.sizes_csv, b"".join(lines))
    assert not verdict.ok
    assert verdict.problems == ("window records differ",)
    # the tampered event is not the one expected next, so later ones are lost
    assert verdict.found < len(ref.events)


def test_gate_rejects_a_changed_number_and_counts_nothing_lost():
    ref = _small_reference()
    tampered = ref.windows_jsonl.replace(b'"coverage":0.', b'"coverage":1.', 1)
    assert tampered != ref.windows_jsonl
    verdict = gate.check(ref, ref.summary, ref.sizes_csv, tampered)
    assert not verdict.ok and verdict.found == len(ref.events)


def test_gate_rejects_a_missing_window_in_the_sizes_csv():
    ref = _small_reference()
    rows = ref.sizes_csv.splitlines(keepends=True)
    verdict = gate.check(ref, ref.summary, b"".join(rows[:4] + rows[5:]), None)
    assert not verdict.ok
    assert verdict.found == sum(ref.sizes[:3])


def test_gate_rejects_a_different_summary():
    ref = _small_reference()
    summary = ref.summary.replace(b"dropped=0", b"dropped=1")
    assert not gate.check(ref, summary, ref.sizes_csv, ref.windows_jsonl).ok


@pytest.mark.parametrize(("trace", "key"), [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metric_names_match_benchmark_json(trace, key):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "file_count_baseline"]
        + ["--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
