"""Unified observability layer: event bus, exporters, metrics registry.

Four subsystems (cached build engine, fault injection, crash-safe
journal, burst simulator) used to report timing through ad-hoc
dataclasses; this package gives them one spine:

* :mod:`events` — a process-wide structured event bus with monotonic
  sequence numbers, typed categories, bounded ring-buffer retention and
  thread-safe emission (the build service's worker threads emit from
  concurrent flows);
* :mod:`chrome` — an exporter merging flow wall-clock spans and
  simulator cycle-domain spans into Chrome ``trace_event`` JSON,
  viewable in ``chrome://tracing`` / Perfetto;
* :mod:`metrics` — a counter/gauge/histogram registry with Prometheus
  text and JSON snapshot writers.

Everything is **off by default**: the instrumented hot paths check one
attribute (``BUS.enabled``) and fall through, so disabled observability
costs nothing measurable (<2% on ``bench_sim``).  Enable it with
:func:`enable`, the :func:`capture` context manager (tests), the
``--trace``/``--metrics`` CLI flags, or ``REPRO_OBS=1``.
"""

from repro.obs.chrome import chrome_trace, write_chrome_trace
from repro.obs.events import (
    BUS,
    CATEGORIES,
    EventBus,
    ObsEvent,
    capture,
    disable,
    enable,
    enabled,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    sim_totals,
    sim_totals_digest,
)

__all__ = [
    "BUS",
    "CATEGORIES",
    "Counter",
    "EventBus",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsEvent",
    "REGISTRY",
    "capture",
    "chrome_trace",
    "disable",
    "enable",
    "enabled",
    "sim_totals",
    "sim_totals_digest",
    "write_chrome_trace",
]
