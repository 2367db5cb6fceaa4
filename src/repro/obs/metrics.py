"""The workload metrics registry: counters, gauges, histograms.

The workload layer's aggregate telemetry.  Where :mod:`repro.obs.bus`
records *what happened* (discrete events), this module records *how
much and how fast*: labelled :class:`Counter` / :class:`Gauge` /
:class:`Histogram` instruments collected in one
:class:`MetricsRegistry` per workload run.  The registry holds the
end-of-run state, not a history: the event stream is the run's
timeline, and a virtual-time question ("how deep was the admission
queue at t?") is answered from it.

Instruments:

* :class:`Counter` — monotonically non-decreasing tally (queries
  admitted, grants by reason, faults injected): its total.
* :class:`Gauge` — a level (admission queue depth, running queries,
  per-pool utilization): the value with the latest virtual-time stamp
  (ties go to the last write) and the peak ever set.
* :class:`Histogram` — observation distribution (admission wait,
  end-to-end query latency).  The raw observations are kept — a
  workload records O(queries) latencies, not O(activations) — so
  percentiles are *exact* (nearest-rank over the real values); the
  fixed log-scale buckets (powers of two, :data:`LOG_BUCKET_BOUNDS`)
  are a rendering/export aid, not a precision limit.

Labels are plain keyword arguments (``registry.counter("grants_total",
reason="shrink")``); each distinct label set is its own instrument,
and :meth:`MetricsRegistry.family` / :meth:`MetricsRegistry.total`
aggregate across a name's label sets.

The workload engine fills the registry through a telemetry consumer
subscribed to its control points (:mod:`repro.workload.consumers`);
with workload observability off there is no registry and nothing is
subscribed — the twin table holds the enabled mode within 5 % wall
clock of its disabled twin (``mpl4`` row of :mod:`repro.bench.twins`).
"""

from __future__ import annotations

import math
from bisect import bisect_left

from repro.errors import ReproError

#: Histogram bucket upper bounds: powers of two from 2^-10 (~1 ms
#: virtual) to 2^10 (~17 virtual minutes), plus an implicit +inf
#: overflow bucket.  Fixed — every histogram in a run shares them, so
#: exported bucket rows are comparable across metrics and runs.
LOG_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    2.0 ** exponent for exponent in range(-10, 11))

#: Well-known metric names.  The workload engine's telemetry consumer
#: (and the fault injector) populate these; the report renderer and the
#: chaos harness read them back by name.
QUERIES_SUBMITTED = "queries_submitted_total"
QUERIES_ADMITTED = "queries_admitted_total"
QUERIES_FINISHED = "queries_finished_total"          # label: status
ADMISSION_QUEUE_DEPTH = "admission_queue_depth"
ADMISSION_WAIT = "admission_wait_virtual_s"
RUNNING_QUERIES = "running_queries"
GRANTS = "grants_total"                              # label: reason
GRANTED_THREADS = "granted_threads"                  # label: query
POOL_UTILIZATION = "pool_utilization"                # labels: query, pool
QUERY_LATENCY = "query_latency_virtual_s"            # label: status
FOLD_ATTEMPTS = "fold_attempts_total"
FOLD_HITS = "fold_hits_total"
FOLD_SUBSCRIBERS = "fold_subscribers"                # label: operator
FOLD_COST_SHARE = "fold_cost_share"                  # labels: query, operator
QUERIES_SHED = "queries_shed_total"                  # label: reason
BACKPRESSURE_ENGAGED = "backpressure_engaged"
FAULTS_INJECTED = "faults_injected_total"            # label: operation
FAULT_RETRIES = "fault_retries_total"                # label: operation
FAULT_ABORTS = "fault_aborts_total"                  # label: operation
FAULT_BACKOFF = "fault_backoff_virtual_s"
FAULT_MEMORY_EVENTS = "fault_memory_events_total"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of *values* (q in [0, 100]).

    The one percentile definition the whole telemetry layer uses —
    the report renderer, the JSONL export and the acceptance tests all
    call this, so "p95 in the report" and "p95 computed from the raw
    handle latencies" are the same number by construction.
    """
    if not 0.0 <= q <= 100.0:
        raise ReproError(f"percentile rank must be in [0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ReproError("percentile of an empty value set")
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def bucket_index(value: float) -> int:
    """Index of the first bucket whose bound is >= *value*
    (``len(LOG_BUCKET_BOUNDS)`` = the +inf overflow bucket)."""
    return bisect_left(LOG_BUCKET_BOUNDS, value)


def _labels_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _g(value: float) -> str:
    """Prometheus-style shortest float rendering (``12`` not ``12.0``)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_labels(labels: dict, **extra) -> str:
    """``{key="value",...}`` or empty when there are no labels."""
    merged = {**labels, **extra}
    if not merged:
        return ""
    inner = ",".join(f'{key}="{_escape_label(merged[key])}"'
                     for key in sorted(merged))
    return "{" + inner + "}"


class _Instrument:
    """Shared shape: a name and a frozen label set."""

    kind = "?"
    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = dict(labels)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.labels.items()))
        return (f"{type(self).__name__}({self.name!r}"
                + (f", {inner}" if inner else "") + ")")


class Counter(_Instrument):
    """A monotone tally."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: dict) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, delta: float = 1.0) -> float:
        """Add *delta* (>= 0); returns the total."""
        if delta < 0:
            raise ReproError(
                f"counter {self.name!r} cannot decrease (delta {delta})")
        self.value += delta
        return self.value


class Gauge(_Instrument):
    """A level: the latest-stamped value and the peak."""

    kind = "gauge"
    __slots__ = ("value", "peak", "stamp")

    def __init__(self, name: str, labels: dict) -> None:
        super().__init__(name, labels)
        self.value = 0.0
        self.peak = 0.0
        self.stamp: float | None = None

    def set(self, t: float, value: float) -> None:
        """Record the level at virtual time *t*.

        Samples usually arrive in stamp order, but a folded subscriber
        can be stamped past its host's bookkeeping, so a write stamped
        before the current one updates the peak only.
        """
        first = self.stamp is None
        self.peak = value if first else max(self.peak, value)
        if first or t >= self.stamp:
            self.value, self.stamp = value, t


class Histogram(_Instrument):
    """An observation distribution: the raw observations, in arrival
    order, and their running total."""

    kind = "histogram"
    __slots__ = ("values", "total")

    def __init__(self, name: str, labels: dict) -> None:
        super().__init__(name, labels)
        self.values: list[float] = []
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.values.append(value)
        self.total += value


class MetricsRegistry:
    """All instruments of one workload run, keyed by (name, labels).

    Instruments are created on first touch (``counter`` / ``gauge`` /
    ``histogram`` are get-or-create and type-checked), so emitting
    sites never pre-register anything.  One registry observes one
    run — like the bus, it is single-use.
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, tuple], _Instrument] = {}

    def __repr__(self) -> str:
        return f"MetricsRegistry(instruments={len(self._instruments)})"

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self):
        return iter(self._instruments.values())

    def _get(self, cls, name: str, labels: dict):
        key = (name, _labels_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = cls(name, labels)
        elif type(instrument) is not cls:
            raise ReproError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, not {cls.kind}")
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    def get(self, name: str, **labels) -> _Instrument | None:
        """The instrument with exactly these labels, or ``None``."""
        return self._instruments.get((name, _labels_key(labels)))

    def family(self, name: str) -> list[_Instrument]:
        """Every instrument registered under *name* (any label set)."""
        return [instrument for (key, _), instrument
                in self._instruments.items() if key == name]

    def total(self, name: str) -> float:
        """Sum of a counter family's values across label sets."""
        return sum(instrument.value for instrument in self.family(name))

    def render_prom(self) -> str:
        """Prometheus text-exposition rendering of the registry.

        Counters and gauges render as one sample per label set;
        histograms render the standard cumulative ``_bucket`` /
        ``_sum`` / ``_count`` triple over :data:`LOG_BUCKET_BOUNDS`.
        Deterministic order (name, then labels), so outputs diff
        cleanly in tests.
        """
        families: dict[str, list[_Instrument]] = {}
        for (name, _), instrument in sorted(self._instruments.items()):
            families.setdefault(name, []).append(instrument)
        lines: list[str] = []
        for name, instruments in families.items():
            kind = instruments[0].kind
            lines.append(f"# TYPE {name} {kind}")
            for instrument in instruments:
                if kind == "histogram":
                    values = instrument.values
                    cumulative = 0
                    for bound in LOG_BUCKET_BOUNDS:
                        cumulative = sum(1 for v in values if v <= bound)
                        lines.append(
                            f"{name}_bucket"
                            f"{_prom_labels(instrument.labels, le=_g(bound))}"
                            f" {cumulative}")
                    lines.append(
                        f"{name}_bucket"
                        f"{_prom_labels(instrument.labels, le='+Inf')}"
                        f" {len(values)}")
                    lines.append(f"{name}_sum"
                                 f"{_prom_labels(instrument.labels)}"
                                 f" {_g(math.fsum(values))}")
                    lines.append(f"{name}_count"
                                 f"{_prom_labels(instrument.labels)}"
                                 f" {len(values)}")
                else:
                    lines.append(f"{name}"
                                 f"{_prom_labels(instrument.labels)}"
                                 f" {_g(instrument.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> list[dict]:
        """Every instrument as one plain-dict row.  Deterministic order
        (name, then labels); the JSONL exporter writes these
        verbatim."""
        rows = []
        for (name, labels_key), instrument in sorted(
                self._instruments.items()):
            row: dict = {"name": name, "labels": dict(labels_key),
                         "kind": instrument.kind}
            if instrument.kind == "histogram":
                values = instrument.values
                row["count"] = len(values)
                row["sum"] = math.fsum(values)
                if values:
                    row["max"] = max(values)
                    row["p50"] = percentile(values, 50)
                    row["p95"] = percentile(values, 95)
                    row["p99"] = percentile(values, 99)
                # The overflow bucket's bound is JSON ``null``, not a
                # non-standard Infinity literal.
                bounds = LOG_BUCKET_BOUNDS + (None,)
                counts = [0] * len(bounds)
                for value in values:
                    counts[bucket_index(value)] += 1
                row["buckets"] = [[bound, count]
                                  for bound, count in zip(bounds, counts)
                                  if count]
            else:
                row["value"] = instrument.value
            rows.append(row)
        return rows
