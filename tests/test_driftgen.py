"""Synthetic drift streams: determinism, structure, ground truth."""

from __future__ import annotations

import json
import math

import pytest

from coverwin import DriftSpec, VariantPool, cli, generate
from coverwin.driftgen import (
    GRADUAL,
    INCREMENTAL,
    RECURRING,
    SUDDEN,
    Lcg,
    _SCENARIOS,
    builtin_scenario,
    case_name,
    case_number,
    make_pool,
    spec_from_json,
    write_annotations,
)


def small_spec(**overrides):
    kwargs = dict(
        kind=SUDDEN,
        pools=(make_pool("ABC"), make_pool("ABCDE")),
        total_cases=40,
        seed=5,
    )
    kwargs.update(overrides)
    return DriftSpec(**kwargs)


# --- rng ---------------------------------------------------------------------


def test_lcg_is_deterministic():
    a = [Lcg(123).next_float() for _ in range(5)]
    b = [Lcg(123).next_float() for _ in range(5)]
    assert a == b
    assert all(0.0 <= x < 1.0 for x in a)


def test_lcg_seeds_diverge():
    assert Lcg(1).next_float() != Lcg(2).next_float()


def test_choose_weighted_is_heavily_biased_by_weights():
    rng = Lcg(9)
    picks = [rng.choose_weighted((0.999, 0.001)) for _ in range(500)]
    assert picks.count(0) > 450


def test_choose_weighted_covers_all_indices():
    rng = Lcg(3)
    picks = {rng.choose_weighted((1.0, 1.0, 1.0)) for _ in range(200)}
    assert picks == {0, 1, 2}


def test_choose_weighted_takes_the_last_index_when_rounding_overshoots(monkeypatch):
    """A draw at or past the last running sum picks the last index.  From
    ``next_float`` below 1 it can come only when ``sum`` rounds the total
    above the running sum, as the compensated float ``sum`` of Python 3.12
    may; the stub lands the draw on the total."""
    rng = Lcg(1)
    monkeypatch.setattr(rng, "next_float", lambda: 1.0)
    assert rng.choose_weighted((0.5, 0.25, 0.25)) == 2


# --- pools and specs -----------------------------------------------------------


def test_pool_validation():
    with pytest.raises(ValueError):
        VariantPool(variants=())
    with pytest.raises(ValueError):
        make_pool("")
    with pytest.raises(ValueError):
        make_pool("A|B")
    for weight in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            make_pool("AB", weights=(weight,))
    with pytest.raises(ValueError):
        make_pool("AB", inter_event_gap=0)
    with pytest.raises(ValueError):
        make_pool("AB", inter_case_gap=-1)


def test_make_pool_pairs_weights_with_sequences():
    pool = make_pool("AB", "CD", weights=(0.7, 0.3))
    assert pool.variants == ((("A", "B"), 0.7), (("C", "D"), 0.3))
    assert pool.weights == (0.7, 0.3)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(kind="nope")
    with pytest.raises(ValueError):
        small_spec(total_cases=0)
    with pytest.raises(ValueError):
        small_spec(drift_position=0.0)
    with pytest.raises(ValueError):
        small_spec(kind=GRADUAL, ramp_interval=(0.6, 0.4))
    with pytest.raises(ValueError):
        small_spec(kind=RECURRING, season_length=0)
    with pytest.raises(ValueError):
        small_spec(kind=INCREMENTAL, increments=0)  # wrong pool count too
    with pytest.raises(ValueError, match="increments must be at least 1"):
        small_spec(kind=INCREMENTAL, increments=0, pools=(make_pool("A"),))
    with pytest.raises(ValueError):
        small_spec(kind=INCREMENTAL, pools=(make_pool("A"), make_pool("B")))


def test_case_name_round_trip():
    assert case_name(17) == "c17"
    assert case_number("c17") == 17


# --- generation --------------------------------------------------------------


def test_generate_is_deterministic():
    spec = small_spec()
    events_a, ann_a = generate(spec)
    events_b, ann_b = generate(spec)
    assert events_a == events_b
    assert ann_a == ann_b


def test_timestamps_strictly_increase():
    events, _ = generate(small_spec())
    for prev, cur in zip(events, events[1:]):
        assert cur.timestamp > prev.timestamp


def test_each_case_replays_one_variant():
    spec = small_spec()
    events, ann = generate(spec)
    by_case: dict[str, list[str]] = {}
    for ev in events:
        by_case.setdefault(ev.case_id, []).append(ev.activity)
    assert len(by_case) == spec.total_cases
    for case_id, activities in by_case.items():
        pool = spec.pools[ann.pool_per_case[case_number(case_id)]]
        assert tuple(activities) in {seq for seq, _ in pool.variants}


def test_sudden_assignment_switches_at_ceil():
    spec = small_spec(drift_position=0.33, total_cases=10)
    _, ann = generate(spec)
    switch = math.ceil(0.33 * 10)  # 4
    assert ann.drift_case_indices == (switch,)
    assert ann.pool_per_case == (0,) * 4 + (1,) * 6


def test_recurring_assignment_alternates():
    spec = small_spec(kind=RECURRING, total_cases=10, season_length=3)
    _, ann = generate(spec)
    assert ann.pool_per_case == (0, 0, 0, 1, 1, 1, 0, 0, 0, 1)
    assert ann.drift_case_indices == (3, 6, 9)


def test_incremental_assignment_walks_segments():
    pools = tuple(make_pool("AB") for _ in range(4))
    spec = small_spec(kind=INCREMENTAL, pools=pools, increments=3, total_cases=12)
    _, ann = generate(spec)
    assert ann.pool_per_case == (0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3)
    assert ann.drift_case_indices == (3, 6, 9)


def test_gradual_ramp_is_monotone_in_probability():
    spec = small_spec(kind=GRADUAL, total_cases=3000, ramp_interval=(0.2, 0.8))
    _, ann = generate(spec)
    pools = ann.pool_per_case
    assert set(pools[:600]) == {0}
    assert set(pools[2400:]) == {1}
    # inside the ramp, later thirds must draw pool 1 more often
    third = (2400 - 600) // 3
    rates = [
        sum(pools[600 + k * third : 600 + (k + 1) * third]) / third for k in range(3)
    ]
    assert rates[0] < rates[1] < rates[2]


def test_gradual_ramp_rate_tracks_expectation():
    # mid-ramp draws are Bernoulli(0.5); allow a 4-sigma band
    spec = small_spec(kind=GRADUAL, total_cases=4000, ramp_interval=(0.0, 1.0))
    _, ann = generate(spec)
    mid = ann.pool_per_case[1000:3000]
    rate = sum(mid) / len(mid)
    sigma = 0.5 / math.sqrt(len(mid))
    assert abs(rate - 0.5) < 4 * sigma


def test_interleaving_actually_happens():
    spec = small_spec(
        pools=(
            make_pool("ABC", inter_event_gap=1000, inter_case_gap=400),
            make_pool("ABCDE", inter_event_gap=1000, inter_case_gap=400),
        )
    )
    events, _ = generate(spec)
    switches = sum(
        1 for a, b in zip(events, events[1:]) if a.case_id != b.case_id
    )
    assert switches > spec.total_cases  # far more than back-to-back cases


def test_annotations_round_trip(tmp_path):
    _, ann = generate(small_spec())
    path = str(tmp_path / "ann.json")
    write_annotations(ann, path)
    with open(path, encoding="utf-8") as fp:
        assert json.load(fp) == {
            "kind": ann.kind,
            "seed": ann.seed,
            "total_cases": ann.total_cases,
            "drift_case_indices": list(ann.drift_case_indices),
            "pool_per_case": list(ann.pool_per_case),
        }


def test_sudden_sidecar_bytes_are_pinned(tmp_path):
    out = str(tmp_path / "sudden.jsonl")
    assert cli.main(["driftgen", "--scenario", "sudden", "--out", out]) == 0
    pools = ", ".join(["0"] * 200 + ["1"] * 200)
    assert (tmp_path / "sudden.jsonl.annotations.json").read_bytes() == (
        '{"kind": "sudden", "seed": 42, "total_cases": 400, '
        f'"drift_case_indices": [200], "pool_per_case": [{pools}]}}\n'
    ).encode()


def test_spec_from_json(tmp_path):
    payload = {
        "kind": "sudden",
        "total_cases": 12,
        "seed": 3,
        "drift_position": 0.25,
        "pools": [
            {
                "variants": [
                    {"activities": ["reg", "pay"], "weight": 2.0},
                    {"activities": ["reg", "ship", "pay"]},
                ],
                "inter_event_gap": 500,
            },
            {"variants": [{"activities": ["reg", "audit", "pay"]}]},
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    spec = spec_from_json(str(path))
    assert spec.kind == SUDDEN
    assert spec.total_cases == 12
    assert spec.drift_position == 0.25
    assert spec.pools[0].inter_event_gap == 500
    assert spec.pools[0].variants[0] == (("reg", "pay"), 2.0)
    assert spec.pools[0].variants[1][1] == 1.0
    events, _ = generate(spec)
    assert events


def test_spec_from_json_reads_a_gradual_ramp(tmp_path):
    payload = {
        "kind": "gradual",
        "total_cases": 20,
        "ramp_interval": [0.25, 0.75],
        "pools": [
            {"variants": [{"activities": ["A", "B"]}]},
            {"variants": [{"activities": ["A", "C"]}]},
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    spec = spec_from_json(str(path))
    assert (spec.kind, spec.ramp_interval) == (GRADUAL, (0.25, 0.75))
    _, annotations = generate(spec)
    assert annotations.drift_case_indices == (5, 15)


def test_scenario_choices_are_the_builtin_table_in_order():
    """``--scenario`` lists every built-in scenario, in the table's order,
    without importing driftgen to build the parsers."""
    assert cli.SCENARIO_NAMES == tuple(_SCENARIOS)


def test_builtin_scenarios_generate():
    for name in cli.SCENARIO_NAMES:
        spec = builtin_scenario(name)
        if name == "throughput":
            continue  # large; covered by the acceptance suite
        events, ann = generate(spec)
        assert len(ann.pool_per_case) == spec.total_cases
        assert events[0].timestamp >= 0
    with pytest.raises(ValueError):
        builtin_scenario("nope")


def test_throughput_scenario_has_100k_events():
    spec = builtin_scenario("throughput")
    assert spec.total_cases * 5 == 100_000
