"""The virtual-time metrics registry: counters, gauges, histograms.

The workload layer's aggregate telemetry.  Where :mod:`repro.obs.bus`
records *what happened* (discrete events), this module records *how
much and how fast*: labelled :class:`Counter` / :class:`Gauge` /
:class:`Histogram` instruments collected in one
:class:`MetricsRegistry` per workload run.  Every sample is stamped
with virtual time, so the registry can be snapshot at any instant of
the simulation — ``registry.snapshot(at=0.25)`` answers "what did the
system look like a quarter of a virtual second in", not just "what
happened by the end".

Instruments:

* :class:`Counter` — monotonically non-decreasing tally (queries
  admitted, grants by reason, faults injected).  Keeps its full step
  function, so ``value_at(t)`` works.
* :class:`Gauge` — last-write-wins level (admission queue depth,
  running queries, per-pool utilization).  Also a step function.
* :class:`Histogram` — observation distribution (admission wait,
  end-to-end query latency) over **fixed log-scale buckets**
  (powers of two, :data:`LOG_BUCKET_BOUNDS`).  The raw time-stamped
  observations are retained as well — a workload records O(queries)
  latencies, not O(activations) — so :meth:`Histogram.percentile`
  is *exact* (nearest-rank over the real values), and the buckets
  are a rendering/export aid, not a precision limit.

Labels are plain keyword arguments (``registry.counter("grants_total",
reason="shrink")``); each distinct label set is its own time series,
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
from bisect import bisect_left, bisect_right

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
ADMISSION_USED_BYTES = "admission_used_bytes"
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
QUERIES_REJECTED = "queries_rejected_total"          # label: reason
BACKPRESSURE_ENGAGED = "backpressure_engaged"
BROWNOUT_ACTIVE = "brownout_active"
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
    """Shared shape: a name, a frozen label set, time-stamped samples."""

    kind = "?"
    __slots__ = ("name", "labels", "times", "values")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = dict(labels)
        self.times: list[float] = []
        self.values: list[float] = []

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.labels.items()))
        return (f"{type(self).__name__}({self.name!r}"
                + (f", {inner}" if inner else "")
                + f", samples={len(self.times)})")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def value(self) -> float:
        """Current (final) value; 0.0 before any sample."""
        return self.values[-1] if self.values else 0.0

    def value_at(self, t: float) -> float:
        """Step-function value at virtual time *t* (0 before the
        first sample; samples at exactly *t* are included)."""
        index = bisect_right(self.times, t)
        return self.values[index - 1] if index else 0.0

    def _record(self, t: float, value: float) -> None:
        """Insert one sample, keeping the series sorted by stamp.

        Samples usually arrive in stamp order, but not always: the
        workload engine processes completions in simulator-callback
        order while stamping each query with its *logical* finish
        instant, and a folded subscriber's stamp (which includes its
        own late-started operations) can exceed its host's even though
        the host's bookkeeping runs later in the same callback.  A
        late sample with an earlier stamp is therefore filed at its
        sorted position, not rejected.
        """
        if not self.times or t >= self.times[-1]:
            self.times.append(t)
            self.values.append(value)
        else:
            index = bisect_right(self.times, t)
            self.times.insert(index, t)
            self.values.insert(index, value)


class Counter(_Instrument):
    """A monotone tally over virtual time."""

    kind = "counter"
    __slots__ = ()

    def inc(self, t: float, delta: float = 1.0) -> float:
        """Add *delta* (>= 0) at virtual time *t*; returns the total.

        The series holds cumulative totals, so an increment whose
        stamp lands *before* already-recorded samples (see
        :meth:`_Instrument._record` for how that happens) splices in
        at its sorted position and bumps every later total — keeping
        ``value_at(t)`` = "events stamped <= t" exact.
        """
        if delta < 0:
            raise ReproError(
                f"counter {self.name!r} cannot decrease (delta {delta})")
        if not self.times or t >= self.times[-1]:
            total = self.value + delta
            self._record(t, total)
            return total
        index = bisect_right(self.times, t)
        base = self.values[index - 1] if index else 0.0
        self.times.insert(index, t)
        self.values.insert(index, base + delta)
        for i in range(index + 1, len(self.values)):
            self.values[i] += delta
        return self.values[-1]


class Gauge(_Instrument):
    """A last-write-wins level over virtual time."""

    kind = "gauge"
    __slots__ = ()

    def set(self, t: float, value: float) -> None:
        """Record the level at virtual time *t*."""
        self._record(t, value)

    @property
    def peak(self) -> float:
        """Largest level ever set; 0.0 before any sample."""
        return max(self.values) if self.values else 0.0


class Histogram(_Instrument):
    """An observation distribution over fixed log-scale buckets.

    ``times``/``values`` hold the raw observations in arrival order
    (the workload layer observes O(queries) values, so keeping them is
    cheap); ``bucket_counts`` maintains the log-bucket aggregation
    incrementally for rendering and export.
    """

    kind = "histogram"
    __slots__ = ("bucket_counts", "total")

    def __init__(self, name: str, labels: dict) -> None:
        super().__init__(name, labels)
        self.bucket_counts = [0] * (len(LOG_BUCKET_BOUNDS) + 1)
        self.total = 0.0

    def observe(self, t: float, value: float) -> None:
        """Record one observation *value* at virtual time *t*."""
        self._record(t, value)
        self.bucket_counts[bucket_index(value)] += 1
        self.total += value

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def max(self) -> float:
        if not self.values:
            raise ReproError(f"histogram {self.name!r} has no observations")
        return max(self.values)

    @property
    def mean(self) -> float:
        if not self.values:
            raise ReproError(f"histogram {self.name!r} has no observations")
        return self.total / len(self.values)

    def observations_at(self, t: float | None = None) -> list[float]:
        """Raw observed values, restricted to virtual time <= *t*."""
        if t is None:
            return list(self.values)
        return self.values[:bisect_right(self.times, t)]

    def percentile(self, q: float, at: float | None = None) -> float:
        """Exact nearest-rank percentile of the raw observations."""
        return percentile(self.observations_at(at), q)

    def buckets(self) -> list[tuple[float, int]]:
        """Non-empty ``(upper_bound, count)`` rows (inf = overflow)."""
        bounds = LOG_BUCKET_BOUNDS + (float("inf"),)
        return [(bound, count)
                for bound, count in zip(bounds, self.bucket_counts)
                if count]


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

    def total(self, name: str, at: float | None = None) -> float:
        """Sum of a counter family's values across label sets."""
        return sum(instrument.value if at is None
                   else instrument.value_at(at)
                   for instrument in self.family(name))

    def render_prom(self, at: float | None = None) -> str:
        """Prometheus text-exposition rendering of the registry.

        Counters and gauges render as one sample per label set;
        histograms render the standard cumulative ``_bucket`` /
        ``_sum`` / ``_count`` triple over :data:`LOG_BUCKET_BOUNDS`.
        With *at*, every value is the virtual-time snapshot at that
        instant — the text format is wall-clock-agnostic, so "the
        registry a quarter of a virtual second in" is a perfectly
        valid exposition.  Deterministic order (name, then labels),
        so outputs diff cleanly in tests.
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
                    values = instrument.observations_at(at)
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
                    value = (instrument.value if at is None
                             else instrument.value_at(at))
                    lines.append(f"{name}"
                                 f"{_prom_labels(instrument.labels)}"
                                 f" {_g(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self, at: float | None = None) -> list[dict]:
        """Every instrument as one plain-dict row, at virtual time
        *at* (``None`` = end of run).  Deterministic order (name,
        then labels); the JSONL exporter writes these verbatim."""
        rows = []
        for (name, labels_key), instrument in sorted(
                self._instruments.items()):
            row: dict = {"name": name, "labels": dict(labels_key),
                         "kind": instrument.kind}
            if instrument.kind == "histogram":
                values = instrument.observations_at(at)
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
                row["value"] = (instrument.value if at is None
                                else instrument.value_at(at))
            rows.append(row)
        return rows
