"""Coverage-driven adaptive windowing for event streams.

A window stays open until the species it has collected (activities,
n-grams, directly-follows pairs or trace variants) cover the estimated
behavior of the process well enough; the closing threshold adapts to the
shape of the coverage curve.  Fixed count/time/landmark windows, a
drift-aware stream generator and a benchmark harness ship alongside.

Each exported name is imported from its module on first access, so
``import coverwin`` loads no submodule and a command only the modules it runs.
"""

import importlib

# module -> the names the package exports from it
_EXPORTS = {
    "abundance": ("AbundanceStats", "coverage", "estimates"),
    "baselines": ("BaselineConfig", "BaselineWindow"),
    "driftgen": ("DriftAnnotations", "DriftSpec", "VariantPool", "generate"),
    "stream_io": (
        "OrderingError", "ParseError", "ReplayStats", "SourceConfig",
        "StopServing", "StreamServer", "parse_event", "replay",
    ),
    "views": ("Event", "SpeciesView", "ViewConfig"),
    "window": ("AdaptiveWindow", "ThresholdState", "WindowRecord"),
}

__version__ = "0.1.0"

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value  # later reads find it without this call
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
