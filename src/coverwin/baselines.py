"""Fixed-rule windowing strategies used for comparison.

They are close rules on the same ``Windower`` core as the adaptive
window, so a pipeline can swap strategies freely.  Species statistics
are tracked the same way; the records simply carry ``threshold=0.0``
because no coverage threshold is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .views import Event, SpeciesView
from .window import Windower

COUNT_TUMBLING = "count_tumbling"
TIME_TUMBLING = "time_tumbling"
LANDMARK = "landmark"
BASELINE_KINDS = (COUNT_TUMBLING, TIME_TUMBLING, LANDMARK)


@dataclass(frozen=True)
class BaselineConfig:
    kind: str
    count: int = 20
    duration: int = 60_000
    landmark_activity: str = ""

    def __post_init__(self) -> None:
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline kind: {self.kind!r}")
        if self.kind == COUNT_TUMBLING and self.count < 1:
            raise ValueError("count must be at least 1")
        if self.kind == TIME_TUMBLING and self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.kind == LANDMARK and not self.landmark_activity:
            raise ValueError("landmark_activity must be non-empty")


class BaselineWindow(Windower):
    """Count, time or landmark tumbling windows.

    Boundary semantics: a count window closes with its count-th event
    inside; a time window closes as soon as an event at least ``duration``
    ms past the window's first event arrives, and that event opens the
    next window; a landmark event likewise closes the running window
    first and then starts (and belongs to) the next one.
    """

    def __init__(self, view: SpeciesView, config: BaselineConfig) -> None:
        super().__init__(view)
        self.config = config

    def _starts_window(self, event: Event) -> bool:
        cfg = self.config
        if cfg.kind == TIME_TUMBLING:
            return event.timestamp - self._buffer[0].timestamp >= cfg.duration
        return cfg.kind == LANDMARK and event.activity == cfg.landmark_activity

    def _is_complete(self) -> bool:
        cfg = self.config
        return cfg.kind == COUNT_TUMBLING and len(self._buffer) >= cfg.count
