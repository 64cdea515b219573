"""Stream windowing: one windowing core and the coverage-driven close rule.

``Windower`` buffers events, counts their species and emits window
records; a subclass decides only where a window ends.  ``AdaptiveWindow``
is the paper's rule: after every event the closing threshold is
re-derived from the shape of the coverage curve, and the window closes
once coverage reaches the threshold (subject to a minimum size).
Threshold state survives window boundaries; buffer and statistics do
not, and the curve evidence restarts at a window's first event.  No
per-window coverage curve is kept.  The fixed count/time/landmark rules
live in ``baselines``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .abundance import AbundanceStats, coverage as coverage_of, estimates
from .views import Event, SpeciesView

CT_CEILING = 0.99
SF_FLOOR = 0.01
SF_CEILING = 0.99
SF_GROWTH = 1.2
SF_DECAY = 0.8


@dataclass(frozen=True)
class ThresholdState:
    """Closing threshold plus the knobs that steer its adaptation.

    ct    current closing threshold, kept within [mt, 0.99]
    sf    smoothing factor blending curve evidence into ct
    dr    amount ct decays when coverage stagnates
    mt    hard floor for ct
    delta stagnation tolerance on consecutive coverage deltas
    w     number of trailing coverage points the stagnation check reads
    """

    ct: float = 0.9
    sf: float = 0.2
    dr: float = 0.1
    mt: float = 0.5
    delta: float = 0.01
    w: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.mt <= CT_CEILING:
            raise ValueError("mt must be in (0, 0.99]")
        if not self.mt <= self.ct <= CT_CEILING:
            raise ValueError("ct must be in [mt, 0.99]")
        if not SF_FLOOR <= self.sf <= SF_CEILING:
            raise ValueError("sf must be in [0.01, 0.99]")
        if not self.dr > 0.0:  # also refuses NaN
            raise ValueError("dr must be positive")
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        if self.w < 2:
            raise ValueError("w must be at least 2")


def _next_threshold(
    ct: float, sf: float, dr: float, mt: float, c_optimal: float, stagnant: bool
) -> tuple[float, float]:
    """Next ``(ct, sf)`` given the curve evidence already extracted.

    Each clamp is a comparison that keeps the same operand as the
    ``min``/``max`` form would, ties and NaN included, but costs no call.
    """
    if stagnant:
        sf = SF_GROWTH * sf
        if sf > SF_CEILING:
            sf = SF_CEILING
        ct_temp = ct - dr
        if ct_temp < mt:
            ct_temp = mt
    else:
        sf = SF_DECAY * sf
        if sf < SF_FLOOR:
            sf = SF_FLOOR
        ct_temp = ct
    ct = sf * c_optimal + (1.0 - sf) * ct_temp
    if ct < mt:
        ct = mt
    if ct > CT_CEILING:
        ct = CT_CEILING
    return ct, sf


@dataclass(frozen=True, init=False)
class WindowRecord:
    """One closed window with its final estimates.

    ``threshold`` is the closing threshold in force at close time; for
    regular closes ``coverage >= threshold`` holds.  ``force_closed``
    marks windows emitted by an end-of-stream flush.

    Every float of a ``Windower``'s record is finite and none is -0.0:
    coverage is the literal 0.0 or 1.0, or lies in (0, 1); ``estimates``
    gives 0.0s, or chao1 >= s_n >= 1 and completeness in (0, 1];
    ``_next_threshold`` keeps ct in [mt, 0.99] with mt > 0; baselines carry 0.0.

    The hand-written ``__init__`` fills ``__dict__`` in one update; no
    slots, so a record stays weakly referenceable on Python 3.10.
    """

    index: int
    events: tuple[Event, ...]
    size: int
    first_ts: int
    last_ts: int
    coverage: float
    completeness: float
    chao1: float
    threshold: float
    force_closed: bool = False

    def __init__(
        self,
        index: int,
        events: tuple[Event, ...],
        size: int,
        first_ts: int,
        last_ts: int,
        coverage: float,
        completeness: float,
        chao1: float,
        threshold: float,
        force_closed: bool = False,
    ) -> None:
        self.__dict__.update(
            index=index,
            events=events,
            size=size,
            first_ts=first_ts,
            last_ts=last_ts,
            coverage=coverage,
            completeness=completeness,
            chao1=chao1,
            threshold=threshold,
            force_closed=force_closed,
        )


class Windower:
    """Buffers events, counts their species and emits window records.

    ``process_event`` returns the record of the window this event closed,
    else None (an event closes at most one); ``flush`` forces out the open
    window.  Subclasses decide only where a window ends, through two hooks:

    - ``_starts_window(event)`` is asked before an event joins a
      non-empty buffer; True closes the running window first, and the
      event opens the next one;
    - ``_is_complete()`` is asked after every event's species are counted;
      True closes the window with the event inside if none closed yet.

    Each record carries ``_threshold`` as its closing threshold: 0.0
    unless a subclass keeps a coverage threshold there.
    """

    def __init__(self, view: SpeciesView) -> None:
        self.view = view
        self.windows_closed = 0
        self._threshold = 0.0
        self._buffer: list[Event] = []
        self._stats = AbundanceStats()

    def _starts_window(self, event: Event) -> bool:
        return False

    def _is_complete(self) -> bool:
        return False

    def process_event(self, event: Event) -> WindowRecord | None:
        closed = None
        if self._buffer and self._starts_window(event):
            closed = self._close(force=False)
        self._buffer.append(event)
        observe = self._stats.observe
        for species in self.view.extract(event):
            observe(species)
        # AdaptiveWindow's curve evidence needs every event, so ask first
        if self._is_complete() and closed is None:
            closed = self._close(force=False)
        return closed

    def flush(self) -> WindowRecord | None:
        """Force out the open window at the end of the stream.

        Every open case is completed first.  Returns None when no events
        are buffered.
        """
        for species in self.view.flush_cases(None):
            self._stats.observe(species)
        if not self._buffer:
            return None
        return self._close(force=True)

    def _close(self, force: bool) -> WindowRecord:
        events = self._buffer
        chao1, completeness, coverage = estimates(self._stats)
        record = WindowRecord(
            self.windows_closed,
            tuple(events),
            len(events),
            events[0].timestamp,
            events[-1].timestamp,
            coverage,
            completeness,
            chao1,
            self._threshold,
            force,
        )
        self.windows_closed += 1
        self._buffer = []
        self._stats = AbundanceStats()
        return record


class AdaptiveWindow(Windower):
    """Closes a window once its coverage reaches the adaptive threshold.

    A window is complete when coverage is at least ``ct`` and it holds at
    least ``min_window_size`` events.  The threshold parameters are read
    from the given ``ThresholdState`` once; only ``ct`` and ``sf`` move
    per event, and they survive window boundaries.  Both pieces of curve
    evidence are kept in O(1) per event and give the same result as a
    rescan of the window's whole coverage curve after every event:

    - the elbow is a running argmax over the curvature values: curvature
      points are append-only and ties go to the earliest index either
      way, so only the newest interior point can take over;
    - stagnation is a run-length counter of consecutive coverage moves
      smaller than ``delta``: the last ``w`` points moved by less than
      ``delta`` each exactly when that run is at least ``w - 1`` long.

    Both restart at a window's first event.  No per-window curve is
    kept: the two latest coverage points are all either check reads.
    """

    def __init__(
        self,
        view: SpeciesView,
        threshold: ThresholdState = ThresholdState(),
        min_window_size: int = 5,
    ) -> None:
        if min_window_size < 1:
            raise ValueError("min_window_size must be at least 1")
        super().__init__(view)
        self.min_window_size = min_window_size
        self._params = threshold
        self._threshold = threshold.ct
        self._sf = threshold.sf
        self._dr = threshold.dr
        self._mt = threshold.mt
        self._delta = threshold.delta
        self._stagnant_run = threshold.w - 1
        self._prev = 0.0
        self._prev2 = 0.0
        self._flat_run = 0
        self._best_r2 = -math.inf
        self._c_optimal = 0.0

    @property
    def threshold(self) -> ThresholdState:
        """Snapshot of the current threshold state."""
        return replace(self._params, ct=self._threshold, sf=self._sf)

    def _is_complete(self) -> bool:
        cov = coverage_of(self._stats)
        n = len(self._buffer)
        ct = self._threshold
        if n == 1:
            self._flat_run = 0
            self._best_r2 = -math.inf
        else:
            prev = self._prev
            delta = self._delta
            d = prev - cov
            if -delta < d < delta:
                flat_run = self._flat_run + 1
            else:
                flat_run = 0
            self._flat_run = flat_run
            if n >= 3:
                # only the newest interior point n-2 is a new elbow candidate
                r2 = self._prev2 - 2.0 * prev + cov
                if r2 > self._best_r2:
                    self._best_r2 = r2
                    self._c_optimal = cov
                ct, self._sf = _next_threshold(
                    ct,
                    self._sf,
                    self._dr,
                    self._mt,
                    self._c_optimal,
                    flat_run >= self._stagnant_run,
                )
                self._threshold = ct
            self._prev2 = prev
        self._prev = cov
        return cov >= ct and n >= self.min_window_size
