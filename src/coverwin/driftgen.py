"""Synthetic event streams with controlled concept drift.

Cases draw their activity sequence from weighted variant pools; which
pool is active for a given case index is what drifts.  Case starts are
staggered so that cases genuinely interleave, and the emitted stream has
strictly increasing timestamps.  Generation is driven by a fixed-constant
linear congruential generator, so a (spec, seed) pair produces the same
bytes on every platform and Python version.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .views import SEPARATOR, Event

SUDDEN = "sudden"
GRADUAL = "gradual"
RECURRING = "recurring"
INCREMENTAL = "incremental"
DRIFT_KINDS = (SUDDEN, GRADUAL, RECURRING, INCREMENTAL)


class Lcg:
    """64-bit linear congruential generator (Knuth's MMIX constants)."""

    _MULT = 6364136223846793005
    _INC = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = (seed ^ 0x9E3779B97F4A7C15) & self._MASK
        self._advance()

    def _advance(self) -> int:
        self._state = (self._state * self._MULT + self._INC) & self._MASK
        return self._state

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self._advance() >> 11) / float(1 << 53)

    def choose_weighted(self, weights: tuple[float, ...]) -> int:
        point = self.next_float() * sum(weights)
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if point < acc:
                return i
        return len(weights) - 1


@dataclass(frozen=True)
class VariantPool:
    """Weighted trace variants plus the pool's timing profile.

    ``variants`` maps activity sequences to positive finite draw weights.
    ``inter_event_gap`` is the ms between consecutive events of a case,
    ``inter_case_gap`` the ms between consecutive case starts; a case gap
    smaller than sequence length * event gap makes cases overlap.
    """

    variants: tuple[tuple[tuple[str, ...], float], ...]
    inter_event_gap: int = 1000
    inter_case_gap: int = 1000

    def __post_init__(self) -> None:
        if not self.variants:
            raise ValueError("a pool needs at least one variant")
        for sequence, weight in self.variants:
            if not sequence:
                raise ValueError("variant sequences must be non-empty")
            if not 0 < weight < math.inf:  # also refuses NaN
                raise ValueError("variant weights must be positive and finite")
            for activity in sequence:
                if not activity or SEPARATOR in activity:
                    raise ValueError(f"bad activity name: {activity!r}")
        if self.inter_event_gap < 1:
            raise ValueError("inter_event_gap must be at least 1 ms")
        if self.inter_case_gap < 0:
            raise ValueError("inter_case_gap must not be negative")

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.variants)


def make_pool(
    *sequences: str, weights: tuple[float, ...] | None = None, **gaps: int
) -> VariantPool:
    """Pool from compact variant strings, one character per activity."""
    if weights is None:
        weights = tuple(1.0 for _ in sequences)
    variants = tuple(
        (tuple(seq), weight) for seq, weight in zip(sequences, weights, strict=True)
    )
    return VariantPool(variants, **gaps)


@dataclass(frozen=True)
class DriftSpec:
    """What to generate.

    sudden       pools (A, B); cases switch at drift_position
    gradual      pools (A, B); P(B) ramps linearly across ramp_interval
    recurring    pools (A, B); alternate every season_length cases
    incremental  increments+1 pools visited in order, equal segments
    Positions and ramp bounds are fractions of total_cases.
    """

    kind: str
    pools: tuple[VariantPool, ...]
    total_cases: int
    drift_position: float = 0.5
    ramp_interval: tuple[float, float] = (0.4, 0.6)
    season_length: int = 50
    increments: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"unknown drift kind: {self.kind!r}")
        if self.total_cases < 1:
            raise ValueError("total_cases must be at least 1")
        expected = self.increments + 1 if self.kind == INCREMENTAL else 2
        if len(self.pools) != expected:
            raise ValueError(
                f"{self.kind} drift needs {expected} pools, got {len(self.pools)}"
            )
        if self.kind == SUDDEN and not 0.0 < self.drift_position < 1.0:
            raise ValueError("drift_position must be inside (0, 1)")
        if self.kind == GRADUAL:
            lo, hi = self.ramp_interval
            if not 0.0 <= lo < hi <= 1.0:
                raise ValueError("ramp_interval must satisfy 0 <= lo < hi <= 1")
        if self.kind == RECURRING and self.season_length < 1:
            raise ValueError("season_length must be at least 1")
        if self.kind == INCREMENTAL and self.increments < 1:
            raise ValueError("increments must be at least 1")


@dataclass(frozen=True)
class DriftAnnotations:
    """Ground truth for a generated stream.

    ``drift_case_indices`` are the case indices where the active regime
    changes (for gradual: ramp start and end); ``pool_per_case`` is the
    pool index every case actually drew from.
    """

    kind: str
    seed: int
    total_cases: int
    drift_case_indices: tuple[int, ...]
    pool_per_case: tuple[int, ...]


def _assign_pools(spec: DriftSpec, rng: Lcg) -> tuple[list[int], tuple[int, ...]]:
    total = spec.total_cases
    if spec.kind == SUDDEN:
        switch = math.ceil(spec.drift_position * total)
        pools = [0 if j < switch else 1 for j in range(total)]
        return pools, (switch,)
    if spec.kind == GRADUAL:
        lo, hi = spec.ramp_interval
        pools = []
        for j in range(total):
            position = j / total
            if position < lo:
                p = 0.0
            elif position >= hi:
                p = 1.0
            else:
                p = (position - lo) / (hi - lo)
            pools.append(1 if rng.next_float() < p else 0)
        return pools, (math.ceil(lo * total), math.ceil(hi * total))
    if spec.kind == RECURRING:
        pools = [(j // spec.season_length) % 2 for j in range(total)]
        marks = tuple(range(spec.season_length, total, spec.season_length))
        return pools, marks
    # incremental: equal segments through the pool sequence
    segment = total / (spec.increments + 1)
    pools = [min(int(j / segment), spec.increments) for j in range(total)]
    marks = tuple(math.ceil(k * segment) for k in range(1, spec.increments + 1))
    return pools, marks


def case_name(index: int) -> str:
    return f"c{index}"


def case_number(case_id: str) -> int:
    """Inverse of case_name; only meaningful for generated streams."""
    return int(case_id[1:])


def generate(spec: DriftSpec) -> tuple[list[Event], DriftAnnotations]:
    """Produce the event stream and its ground-truth annotations.

    Events come out ordered by (planned time, case index) with strictly
    increasing timestamps; the relative order of a case's own events is
    always preserved, so every case replays exactly one pool variant.
    """
    rng = Lcg(spec.seed)
    pool_per_case, drift_marks = _assign_pools(spec, rng)

    planned: list[tuple[int, int, int, str]] = []
    start = 0
    for j, pool_index in enumerate(pool_per_case):
        pool = spec.pools[pool_index]
        if j > 0:
            start += pool.inter_case_gap
        sequence, _ = pool.variants[rng.choose_weighted(pool.weights)]
        for i, activity in enumerate(sequence):
            planned.append((start + i * pool.inter_event_gap, j, i, activity))

    planned.sort()  # (j, i) is unique, so activities are never compared
    events: list[Event] = []
    last_ts = -1
    for ts, j, _, activity in planned:
        ts = max(ts, last_ts + 1)
        last_ts = ts
        events.append(Event(case_name(j), activity, ts))
    annotations = DriftAnnotations(
        kind=spec.kind,
        seed=spec.seed,
        total_cases=spec.total_cases,
        drift_case_indices=drift_marks,
        pool_per_case=tuple(pool_per_case),
    )
    return events, annotations


def write_annotations(annotations: DriftAnnotations, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(asdict(annotations), fp)
        fp.write("\n")


def spec_from_json(path: str) -> DriftSpec:
    """Load a DriftSpec from its JSON description.

    Schema: {"kind", "total_cases", "seed", "pools": [{"variants":
    [{"activities": [...], "weight": 1.0}], "inter_event_gap",
    "inter_case_gap"}], plus the kind-specific fields drift_position,
    ramp_interval, season_length, increments}.
    """
    with open(path, encoding="utf-8-sig") as fp:
        obj = json.load(fp)
    pools = []
    gap_keys = ("inter_event_gap", "inter_case_gap")
    for pool_obj in obj["pools"]:
        variants = tuple(
            (tuple(v["activities"]), float(v.get("weight", 1.0)))
            for v in pool_obj["variants"]
        )
        gaps = {key: int(pool_obj[key]) for key in gap_keys if key in pool_obj}
        pools.append(VariantPool(variants, **gaps))
    casts = dict(drift_position=float, season_length=int, increments=int, seed=int)
    kwargs = {key: cast(obj[key]) for key, cast in casts.items() if key in obj}
    if "ramp_interval" in obj:
        kwargs["ramp_interval"] = tuple(float(x) for x in obj["ramp_interval"])
    return DriftSpec(obj["kind"], tuple(pools), int(obj["total_cases"]), **kwargs)


_THREE = make_pool("ABC", inter_case_gap=3000)
_FIVE = make_pool(
    "ABCDE",
    "ACBDE",
    "ABDCE",
    "ABCED",
    "ADBCE",
    "ACDBE",
    weights=(0.2, 0.18, 0.17, 0.15, 0.15, 0.15),
    inter_case_gap=3000,
)
_FIVE_PLAIN = make_pool("ABCDE", inter_case_gap=3000)
_SKEWED = make_pool("ABCDE", "ABDCE", weights=(0.7, 0.3), inter_case_gap=3000)
_SCENARIOS = {
    "sudden": DriftSpec(SUDDEN, (_THREE, _FIVE), total_cases=400, seed=42),
    "gradual": DriftSpec(
        GRADUAL, (_THREE, _FIVE), total_cases=900, ramp_interval=(0.4, 0.6), seed=7
    ),
    "recurring": DriftSpec(
        RECURRING, (_THREE, _FIVE), total_cases=400, season_length=100, seed=11
    ),
    "incremental": DriftSpec(
        INCREMENTAL,
        tuple(make_pool("ABCDEFG"[: 3 + k], inter_case_gap=3000) for k in range(5)),
        total_cases=500,
        increments=4,
        seed=13,
    ),
    "steady3": DriftSpec(SUDDEN, (_THREE, _THREE), total_cases=300, seed=21),
    "steady5": DriftSpec(SUDDEN, (_FIVE_PLAIN, _FIVE_PLAIN), total_cases=300, seed=21),
    "throughput": DriftSpec(SUDDEN, (_SKEWED, _SKEWED), total_cases=20_000, seed=99),
}


def builtin_scenario(name: str) -> DriftSpec:
    """Named scenarios used by the benchmark harness and the test suite.

    sudden / gradual / recurring / incremental demonstrate the four drift
    kinds moving from a plain 3-activity regime to a richer 5-activity
    regime with rare variants; steady3 and steady5 are drift-free
    single-regime streams; throughput is a large drift-free stream for
    speed measurements.  Case gaps are close to case spans, so cases
    overlap mildly without shredding windows into single-event fragments.
    The specs are frozen, so every caller may share them.
    """
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario: {name!r}") from None
