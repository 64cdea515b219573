"""Workload definitions: seeded inputs, CLI flags and reference strategies.

Every workload is one generated event stream plus the windowing flags the
program runs it with.  Each workload runs both user-facing paths over its
stream: ``coverwin analyze`` on the file, and ``coverwin listen`` fed the
same file over loopback TCP.  The seed is the only input; the program sees
nothing but the generated file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from coverwin import driftgen
from coverwin.baselines import COUNT_TUMBLING, BaselineConfig, BaselineWindow
from coverwin.driftgen import SUDDEN, DriftSpec, Lcg, VariantPool
from coverwin.views import Event, SpeciesView, ViewConfig
from coverwin.window import AdaptiveWindow, ThresholdState

RICH_ACTIVITIES = 30
RICH_VARIANTS = 100
RICH_CASES = 10_000

#: open-loop rate of the paced listen phase: a quarter or less of the rate
#: listen reaches in the blast phase on every workload (40k-100k events/s)
PACED_RATE = 10_000.0
#: events sent in the paced listen phase, a prefix of the stream
PACED_EVENTS = 50_000


def rich_spec(seed: int) -> DriftSpec:
    """~100 Zipf-weighted variants of 8-12 events over 30 activities.

    Cases start 50 ms apart and their events are 1 s apart, so about 200
    cases are open at once and the whole stream (~500 s) lies inside one
    default case timeout: the view's case table only grows.
    """
    rng = Lcg(seed)
    activities = [f"a{i:02d}" for i in range(RICH_ACTIVITIES)]
    variants = []
    for rank in range(RICH_VARIANTS):
        length = 8 + int(rng.next_float() * 5)
        sequence = tuple(
            activities[int(rng.next_float() * RICH_ACTIVITIES)] for _ in range(length)
        )
        variants.append((sequence, 1.0 / (rank + 1)))
    pool = VariantPool(tuple(variants), inter_event_gap=1000, inter_case_gap=50)
    return DriftSpec(SUDDEN, (pool, pool), total_cases=RICH_CASES, seed=seed)


def throughput_spec(seed: int) -> DriftSpec:
    return replace(driftgen.builtin_scenario("throughput"), seed=seed)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Callable[[int], DriftSpec]
    flags: tuple[str, ...]
    windows_out: bool
    make_strategy: Callable[[], object]

    def events(self, seed: int) -> list[Event]:
        return driftgen.generate(self.spec(seed))[0]


def _adaptive(kind: str) -> Callable[[], object]:
    return lambda: AdaptiveWindow(
        SpeciesView(ViewConfig(kind=kind)), ThresholdState(), min_window_size=5
    )


def _count20() -> BaselineWindow:
    return BaselineWindow(
        SpeciesView(ViewConfig()), BaselineConfig(COUNT_TUMBLING, count=20)
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="file_small_windows",
            spec=throughput_spec,
            flags=("--view", "activity_ngram", "--ngram", "1"),
            windows_out=True,
            make_strategy=_adaptive("activity_ngram"),
        ),
        Workload(
            name="file_rich_windows",
            spec=rich_spec,
            flags=("--view", "directly_follows"),
            windows_out=False,
            make_strategy=_adaptive("directly_follows"),
        ),
        Workload(
            name="file_count_baseline",
            spec=throughput_spec,
            flags=("--strategy", "count_tumbling", "--count", "20"),
            windows_out=True,
            make_strategy=_count20,
        ),
    )
}
