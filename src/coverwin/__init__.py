"""Coverage-driven adaptive windowing for event streams.

A window stays open until the species it has collected (activities,
n-grams, directly-follows pairs or trace variants) cover the estimated
behavior of the process well enough; the closing threshold adapts to the
shape of the coverage curve.  Fixed count/time/landmark windows, a
drift-aware stream generator and a benchmark harness ship alongside.
"""

from .abundance import AbundanceStats, coverage, estimates
from .baselines import BaselineConfig, BaselineWindow
from .driftgen import DriftAnnotations, DriftSpec, VariantPool, generate
from .stream_io import (
    OrderingError,
    ParseError,
    ReplayStats,
    SourceConfig,
    StopServing,
    StreamServer,
    parse_event,
    replay,
)
from .views import Event, SpeciesView, ViewConfig
from .window import AdaptiveWindow, ThresholdState, WindowRecord

__version__ = "0.1.0"

__all__ = [
    "AbundanceStats",
    "AdaptiveWindow",
    "BaselineConfig",
    "BaselineWindow",
    "DriftAnnotations",
    "DriftSpec",
    "Event",
    "OrderingError",
    "ParseError",
    "ReplayStats",
    "SourceConfig",
    "SpeciesView",
    "StopServing",
    "StreamServer",
    "ThresholdState",
    "VariantPool",
    "ViewConfig",
    "WindowRecord",
    "coverage",
    "estimates",
    "generate",
    "parse_event",
    "replay",
    "__version__",
]
