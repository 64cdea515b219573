"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them all) and then asserts, so a red run pinpoints the failed criterion
directly.  Tolerances and time budgets are pinned here and nowhere else.
"""

from __future__ import annotations

import csv
import math
import random
import time
from dataclasses import replace
from statistics import fmean, stdev

from coverwin import (
    AbundanceStats,
    AdaptiveWindow,
    BaselineConfig,
    BaselineWindow,
    Event,
    SourceConfig,
    SpeciesView,
    ThresholdState,
    ViewConfig,
    estimates,
    generate,
    replay,
)
from coverwin import bench
from coverwin.cli import main
from coverwin.driftgen import builtin_scenario
from coverwin.stream_io import (
    FILE_CSV,
    FILE_JSONL,
    window_record_to_json,
    write_events_csv,
    write_events_jsonl,
)
from coverwin.views import ACTIVITY_NGRAM, DIRECTLY_FOLLOWS, TRACE_VARIANT
from coverwin.window import CT_CEILING, SF_CEILING, SF_FLOOR

from conftest import (
    adaptive_run,
    batch_reference_run,
    parse_window_record,
    update_threshold,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --- 1: worked-example exactness ----------------------------------------------


def test_criterion_1_worked_example(worked_example_events):
    start = time.perf_counter()

    activity = AbundanceStats()
    view = SpeciesView(ViewConfig(ACTIVITY_NGRAM))
    for ev in worked_example_events:
        for sp in view.extract(ev):
            activity.observe(sp)
    chao1, completeness, coverage = estimates(activity)

    pairs = AbundanceStats()
    view = SpeciesView(ViewConfig(DIRECTLY_FOLLOWS))
    for ev in worked_example_events:
        for sp in view.extract(ev):
            pairs.observe(sp)

    elapsed = time.perf_counter() - start
    ok = (
        (activity.n, activity.s_n, activity.f1, activity.f2) == (9, 5, 2, 2)
        and chao1 == 6.0
        and completeness == 5 / 6
        and coverage == 37 / 45
        and (pairs.n, pairs.s_n) == (8, 7)
        and pairs.counts["A|C"] == 2
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"chao1={chao1} completeness={completeness:.6f} "
        f"coverage={coverage:.6f} pair_species={pairs.s_n} "
        f"elapsed={elapsed:.3f}s (<1s)",
    )


# --- 2: incremental equals batch ----------------------------------------------


def _mixed_events(count: int, alphabet: int, cases: int, seed: int) -> list[Event]:
    # 70% of draws from a small hot set so pair species repeat and
    # windows actually close even for large alphabets
    rng = random.Random(seed)
    hot = min(8, alphabet)
    out = []
    for i in range(count):
        if rng.random() < 0.7:
            label = f"a{rng.randrange(hot)}"
        else:
            label = f"a{rng.randrange(alphabet)}"
        out.append(Event(f"c{i % cases}", label, (i + 1) * 37))
    return out


def test_criterion_2_incremental_matches_batch():
    combos = []
    for alphabet in (5, 50, 500):
        combos.append((ACTIVITY_NGRAM, alphabet, 10_500, 5))
        combos.append((DIRECTLY_FOLLOWS, alphabet, 11_000, 5))
        combos.append((TRACE_VARIANT, alphabet, 12_500, 300))

    start = time.perf_counter()
    checked = 0
    for kind, alphabet, count, cases in combos:
        config = ViewConfig(kind, ngram_order=1, case_timeout=5_000)
        events = _mixed_events(count, alphabet, cases, seed=alphabet * 7 + count)
        state0 = ThresholdState()
        cts, closes, total_obs = batch_reference_run(events, config, state0, 5)
        got = adaptive_run(events, config, state0, 5)
        assert total_obs >= 10_000, (kind, alphabet, total_obs)
        assert got == (cts, closes), (kind, alphabet)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 9 and elapsed < 10.0
    report(
        2,
        ok,
        f"{checked}/9 view-alphabet combos exactly equal over >=10k "
        f"observations each, elapsed={elapsed:.2f}s (<10s)",
    )


# --- 3: threshold traces and bounds --------------------------------------------


def test_criterion_3_threshold_behavior():
    # flat stagnating curve
    flat = update_threshold([0.8] * 5, ThresholdState())
    trace1 = abs(flat.sf - 0.24) < 1e-12 and abs(flat.ct - 0.8) < 1e-12

    # short active curve
    active = update_threshold([0.2, 0.5, 0.9, 0.95], ThresholdState(ct=0.85, sf=0.2))
    trace2 = abs(active.sf - 0.16) < 1e-12 and abs(active.ct - 0.858) < 1e-12

    rng = random.Random(20_24)
    bounded = 0
    for _ in range(10_000):
        mt = rng.uniform(0.05, 0.9)
        state = ThresholdState(
            ct=rng.uniform(mt, CT_CEILING),
            sf=rng.uniform(SF_FLOOR, SF_CEILING),
            dr=rng.uniform(0.01, 0.5),
            mt=mt,
            delta=rng.uniform(1e-4, 0.1),
            w=rng.randint(2, 8),
        )
        history = [rng.random() for _ in range(rng.randint(3, 40))]
        out = update_threshold(history, state)
        if state.mt <= out.ct <= CT_CEILING and SF_FLOOR <= out.sf <= SF_CEILING:
            bounded += 1

    ok = trace1 and trace2 and bounded == 10_000
    report(
        3,
        ok,
        f"hand traces within 1e-12 ({trace1}, {trace2}), "
        f"bounds held on {bounded}/10000 random histories",
    )


# --- 4: homogeneity drives window size ------------------------------------------


def _adaptive_sizes(name: str) -> list[int]:
    events, _ = generate(builtin_scenario(name))
    win = AdaptiveWindow(SpeciesView(ViewConfig(ACTIVITY_NGRAM)))
    return [r.size for r in bench.run_stream(events, win)]


def test_criterion_4_alphabet_size_stretches_windows():
    sizes3 = _adaptive_sizes("steady3")
    sizes5 = _adaptive_sizes("steady5")
    again5 = _adaptive_sizes("steady5")
    mean3 = sum(sizes3) / len(sizes3)
    mean5 = sum(sizes5) / len(sizes5)
    ok = (
        len(sizes3) >= 20
        and len(sizes5) >= 20
        and mean5 > mean3
        and sizes5 == again5
    )
    report(
        4,
        ok,
        f"3-activity mean={mean3:.2f} over {len(sizes3)} windows, "
        f"5-activity mean={mean5:.2f} over {len(sizes5)} windows, "
        f"deterministic={sizes5 == again5}",
    )


# --- 5: drift reaction -----------------------------------------------------------


def test_criterion_5_sudden_and_gradual_drift():
    spec = builtin_scenario("sudden")
    events, ann = generate(spec)
    win = AdaptiveWindow(SpeciesView(ViewConfig(ACTIVITY_NGRAM)))
    records = bench.run_stream(events, win)
    sizes = [r.size for r in records]
    dw = bench.first_window_at_case(records, ann.drift_case_indices[0])
    rep = bench.drift_adaptation_stats(sizes, dw)
    pre = sum(sizes[:dw]) / dw
    post = sum(sizes[dw:]) / (len(sizes) - dw)
    sudden_ok = post >= 1.15 * pre and rep.coefficient_of_variation < 0.5

    spec_g = builtin_scenario("gradual")
    events_g, _ = generate(spec_g)
    win = AdaptiveWindow(SpeciesView(ViewConfig(ACTIVITY_NGRAM)))
    records_g = bench.run_stream(events_g, win)
    sizes_g = [r.size for r in records_g]
    lo = int(spec_g.ramp_interval[0] * spec_g.total_cases)
    hi = int(spec_g.ramp_interval[1] * spec_g.total_cases)
    w_lo = bench.first_window_at_case(records_g, lo)
    w_hi = bench.first_window_at_case(records_g, hi)
    assert 0 < w_lo < w_hi < len(sizes_g)
    g_pre = fmean(sizes_g[:w_lo])
    g_during = fmean(sizes_g[w_lo:w_hi])
    g_post = fmean(sizes_g[w_hi:])
    gradual_ok = g_pre < g_during < g_post

    report(
        5,
        sudden_ok and gradual_ok,
        f"sudden post/pre={post / pre:.3f} (>=1.15) "
        f"cv={rep.coefficient_of_variation:.3f} (<0.5); "
        f"gradual {g_pre:.2f} < {g_during:.2f} < {g_post:.2f} ({gradual_ok})",
    )


# --- 6: one-command strategy comparison -------------------------------------------


def test_criterion_6_compare_beats_count_baseline(tmp_path, capsys):
    code = main(["bench", "compare", "--scenario", "sudden", "--outdir", str(tmp_path)])
    capsys.readouterr()  # the table itself is not the contract
    assert code == 0
    with open(tmp_path / "comparison.csv", newline="") as fp:
        rows = {row["strategy"]: row for row in csv.DictReader(fp)}
    adaptive_f1 = float(rows["adaptive"]["mean_f1"])
    count_f1 = float(rows["count_tumbling"]["mean_f1"])
    landmark_f1 = float(rows["landmark"]["mean_f1"])
    ok = adaptive_f1 >= count_f1
    report(
        6,
        ok,
        f"mean DFG F1: adaptive={adaptive_f1:.4f} >= "
        f"count_tumbling={count_f1:.4f} (landmark={landmark_f1:.4f})",
    )


# --- 7: speed ---------------------------------------------------------------------


def test_criterion_7_throughput_and_latency(tmp_path):
    events, _ = generate(builtin_scenario("throughput"))
    path = str(tmp_path / "big.jsonl")
    write_events_jsonl(events, path)
    source = SourceConfig(FILE_JSONL, path)
    # each run times a fresh pipeline from opening the file to its last
    # event, not the flush
    rates = []
    for _ in range(5):
        window = AdaptiveWindow(SpeciesView(ViewConfig(ACTIVITY_NGRAM)))
        start = time.perf_counter()
        delivered = replay(source, window.process_event).delivered
        rates.append(delivered / (time.perf_counter() - start))
        window.flush()

    sizes = list(range(50, 501, 50))
    rows = bench.measure_latency(sizes, trials=7)
    r2 = bench.linear_fit_r2(
        [r.window_size for r in rows], [r.min_seconds for r in rows]
    )

    mean = fmean(rates)
    ok = delivered == 100_000 and mean >= 9_000 and r2 >= 0.9
    report(
        7,
        ok,
        f"throughput mean={mean:.0f}±{stdev(rates):.0f} ev/s "
        f"over {len(rates)} runs of {delivered} events "
        f"(>=9000); latency R²={r2:.4f} (>=0.9)",
    )


# --- 8: stream integrity ------------------------------------------------------------


def _strategies():
    def view():
        return SpeciesView(ViewConfig(ACTIVITY_NGRAM))

    return {
        "adaptive": AdaptiveWindow(view()),
        "count": BaselineWindow(view(), BaselineConfig("count_tumbling", count=20)),
        "time": BaselineWindow(view(), BaselineConfig("time_tumbling", duration=30_000)),
        "landmark": BaselineWindow(
            view(), BaselineConfig("landmark", landmark_activity="A")
        ),
    }


def test_criterion_8_partition_replay_roundtrip(tmp_path):
    spec = replace(builtin_scenario("sudden"), total_cases=1_000, seed=314)
    events, _ = generate(spec)
    again, _ = generate(spec)

    lossless = True
    for name, strategy in _strategies().items():
        records = bench.run_stream(events, strategy)
        rebuilt = [ev for rec in records for ev in rec.events]
        lossless = lossless and rebuilt == events

    jsonl_path = str(tmp_path / "ev.jsonl")
    csv_path = str(tmp_path / "ev.csv")
    write_events_jsonl(events, jsonl_path)
    write_events_csv(events, csv_path)

    replay_a: list[Event] = []
    replay_b: list[Event] = []
    replay(SourceConfig(FILE_JSONL, jsonl_path), replay_a.append)
    replay(SourceConfig(FILE_JSONL, jsonl_path), replay_b.append)
    replay_csv: list[Event] = []
    replay(SourceConfig(FILE_CSV, csv_path), replay_csv.append)

    win_a = AdaptiveWindow(SpeciesView(ViewConfig(ACTIVITY_NGRAM)))
    win_b = AdaptiveWindow(SpeciesView(ViewConfig(ACTIVITY_NGRAM)))
    recs_a = bench.run_stream(replay_a, win_a)
    recs_b = bench.run_stream(replay_b, win_b)
    records_roundtrip = all(
        parse_window_record(window_record_to_json(rec)) == rec for rec in recs_a
    )

    deterministic = events == again and replay_a == replay_b and recs_a == recs_b
    roundtrip = replay_a == events and replay_csv == events and records_roundtrip

    report(
        8,
        lossless and deterministic and roundtrip,
        f"lossless partition over {len(events)} events x 4 strategies: {lossless}; "
        f"replay determinism: {deterministic}; "
        f"jsonl/csv/window-record round-trips: {roundtrip}",
    )
