"""Species extraction from event streams.

An event stream becomes a stream of species tokens under one of three
views: activity n-grams, directly-follows pairs, or whole trace
variants.  The first two emit per event; trace variants only materialize
once a case is considered complete (no activity for ``case_timeout`` ms
of stream time, or end of stream).

Per-case context lives in a recency-ordered table so that idle cases can
be evicted from the front in amortized O(1) per event.  An activity 1-gram
needs no context, so that view leaves the table empty and skips the scan.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

#: Joins activities into composite species tokens.  Rejected inside
#: activity names at ingestion so that tokens stay unambiguous.
SEPARATOR = "|"

ACTIVITY_NGRAM = "activity_ngram"
DIRECTLY_FOLLOWS = "directly_follows"
TRACE_VARIANT = "trace_variant"
VIEW_KINDS = (ACTIVITY_NGRAM, DIRECTLY_FOLLOWS, TRACE_VARIANT)

MAX_NGRAM_ORDER = 5
DEFAULT_CASE_TIMEOUT_MS = 30 * 60 * 1000


@dataclass(frozen=True, slots=True, init=False)
class Event:
    """One observed activity execution.

    ``timestamp`` is milliseconds since the epoch; ordering and timeouts
    use stream time only, never the wall clock.

    A frozen dataclass with a hand-written ``__init__``: it fills the
    three slots through their descriptors, which is cheaper than the
    generated ``object.__setattr__`` by field name.
    """

    case_id: str
    activity: str
    timestamp: int

    def __init__(self, case_id: str, activity: str, timestamp: int) -> None:
        _set_case_id(self, case_id)
        _set_activity(self, activity)
        _set_timestamp(self, timestamp)


_set_case_id = Event.case_id.__set__
_set_activity = Event.activity.__set__
_set_timestamp = Event.timestamp.__set__


@dataclass(frozen=True)
class ViewConfig:
    kind: str = ACTIVITY_NGRAM
    ngram_order: int = 1
    case_timeout: int = DEFAULT_CASE_TIMEOUT_MS

    def __post_init__(self) -> None:
        if self.kind not in VIEW_KINDS:
            raise ValueError(f"unknown view kind: {self.kind!r}")
        if not 1 <= self.ngram_order <= MAX_NGRAM_ORDER:
            raise ValueError(
                f"ngram_order must be in 1..{MAX_NGRAM_ORDER}, got {self.ngram_order}"
            )
        if self.case_timeout <= 0:
            raise ValueError("case_timeout must be positive")


class _CaseState:
    __slots__ = ("recent", "last_seen")

    def __init__(self) -> None:
        # last n activities (all for trace variants); a list joins fastest
        self.recent: list[str] = []
        self.last_seen = 0


class SpeciesView:
    """Stateful species extractor for one stream.

    Case state persists across window boundaries: a window close does not
    interrupt running cases, so n-gram/directly-follows context built in
    one window keeps feeding the next.  ``extract`` also completes the
    cases that its event shows idle.  A 1-gram view holds no case state,
    so ``case_timeout`` has no effect on it and ``open_cases`` stays 0.
    """

    def __init__(self, config: ViewConfig) -> None:
        self.config = config
        if config.kind == ACTIVITY_NGRAM:
            self._order = config.ngram_order
        elif config.kind == DIRECTLY_FOLLOWS:
            self._order = 2
        else:
            # trace variants keep every activity and emit on completion
            self._order = float("inf")
        self._cases: OrderedDict[str, _CaseState] = OrderedDict()
        #: No case is idle at or before this stream time: the front case's
        #: last_seen + case_timeout at the last scan (timestamps never go
        #: back).  ``extract`` scans only for an event past it.  A 1-gram
        #: keeps no case, so for it no case is ever idle.
        self.idle_after = float("inf") if self._order == 1 else float("-inf")

    @property
    def open_cases(self) -> int:
        return len(self._cases)

    def extract(self, event: Event) -> list[str]:
        """The event's own species (none while its case holds under n
        activities), then those of the cases idle at its time.  The scan
        runs only past ``idle_after`` and after the event touched its case,
        so a case revisited after its timeout keeps its history."""
        if self._order == 1:  # the activity alone: no case context to keep
            return [event.activity]
        state = self._cases.get(event.case_id)
        if state is None:
            state = _CaseState()
            self._cases[event.case_id] = state
        else:
            self._cases.move_to_end(event.case_id)
        recent = state.recent
        recent.append(event.activity)
        state.last_seen = event.timestamp
        # an n-gram once the case holds n; directly-follows is the 2-gram
        if len(recent) > self._order:
            del recent[0]
        species = [SEPARATOR.join(recent)] if len(recent) == self._order else []
        if event.timestamp > self.idle_after:
            species += self.flush_cases(event.timestamp)
        return species

    def flush_cases(self, now: int | None = None) -> list[str]:
        """Complete idle cases and return any trace-variant species.

        A case is idle when its last activity is more than ``case_timeout``
        ms of stream time before ``now``, the time of the event ``extract``
        holds; ``None`` means end of stream: every case completes.  For
        non-variant views an evicted case only loses its context.
        Timestamps must reach the view in non-decreasing order.
        """
        emit_variants = self.config.kind == TRACE_VARIANT
        timeout = self.config.case_timeout
        emitted: list[str] = []
        # cases are kept in last-touched order, so the idle ones sit at
        # the front and the scan stops at the first live case
        while self._cases:
            case_id, state = next(iter(self._cases.items()))
            if now is not None and state.last_seen + timeout >= now:
                self.idle_after = state.last_seen + timeout
                break
            del self._cases[case_id]
            if emit_variants:
                emitted.append(SEPARATOR.join(state.recent))
        return emitted
