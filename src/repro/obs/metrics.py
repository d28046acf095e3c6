"""Dependency-free metrics primitives: counters, gauges, histograms.

The telemetry substrate for the whole repo (see ``docs/OBSERVABILITY.md``).
A :class:`MetricsRegistry` holds named metric *families*; a family with
label names has labeled *children* (``rpc_requests_total{method="km.derive_batch"}``)
and a family without label names is its own single child.  Everything is
thread-safe: hot paths increment counters and observe histograms from
many threads concurrently (the TCP server's worker pool, the upload
pipeline's ship worker) and totals must come out exact.

Two registry scopes exist:

* the **process-wide default registry** (:func:`default_registry`) —
  client-side components fall back to it so one scrape shows the whole
  process; and
* **per-component registries** — every :class:`~repro.net.tcp.TcpServer`
  node in a :class:`~repro.core.cluster.TcpCluster` gets its own
  injected registry, so scraping a node returns that node's series only.

Exposition lives in :mod:`repro.obs.expo` (Prometheus text and JSON).
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence

from repro.util.errors import ConfigurationError

#: Default histogram buckets, tuned for operation latencies in seconds:
#: 100 µs resolution at the bottom (in-process RPC dispatch) up to 10 s
#: (whole-file uploads over TCP).  ``+Inf`` is implicit.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets for byte-size distributions (payloads, batches): 64 B – 64 MiB.
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = tuple(
    float(64 << (2 * i)) for i in range(11)
)


def _validate_labels(labelnames: Sequence[str]) -> tuple[str, ...]:
    names = tuple(labelnames)
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate label names: {names!r}")
    for name in names:
        if not name.isidentifier():
            raise ConfigurationError(f"label name {name!r} is not an identifier")
    return names


class Counter:
    """A monotonically increasing value (one labeled child)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (one labeled child)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A fixed-bucket histogram (one labeled child).

    Tracks cumulative bucket counts, total count, sum, min, and max.
    ``min``/``max`` are an extension over the Prometheus data model so
    the benchmark harness can report best-of-N timings straight from the
    histogram it recorded into.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError("histogram buckets must be sorted and non-empty")
        self._lock = threading.Lock()
        self.buckets = bounds
        self._counts = [0] * len(bounds)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            # Linear scan: bucket lists are short (≤ ~16) and the scan
            # stops at the first fit, so this beats bisect's call cost.
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    break

    def _quantile_locked(self, q: float) -> float | None:
        """Bucket-interpolated quantile estimate (caller holds the lock).

        Standard Prometheus-style linear interpolation inside the bucket
        that contains the target rank, improved by the tracked exact
        ``min``/``max``: estimates are clamped into ``[min, max]`` and
        ranks landing in the overflow (+Inf) bucket return ``max``
        instead of an unbounded guess.
        """
        if self._count == 0:
            return None
        rank = q * self._count
        cumulative = 0
        lower = 0.0
        for bound, count in zip(self.buckets, self._counts):
            if count and cumulative + count >= rank:
                fraction = (rank - cumulative) / count
                estimate = lower + (bound - lower) * fraction
                return min(max(estimate, self._min), self._max)
            cumulative += count
            lower = bound
        return self._max  # rank fell in the +Inf overflow bucket

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) of observations.

        ``None`` on an empty histogram.  See :meth:`_quantile_locked`
        for the interpolation rules.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile {q!r} is not in [0, 1]")
        with self._lock:
            return self._quantile_locked(q)

    def snapshot(self) -> dict:
        """One consistent view: counts per bucket, count, sum, min, max,
        and the p50/p95/p99 estimates the SLO tooling gates on."""
        with self._lock:
            return {
                "buckets": {
                    bound: count
                    for bound, count in zip(self.buckets, self._counts)
                },
                "count": self._count,
                "sum": self._sum,
                "min": None if self._count == 0 else self._min,
                "max": None if self._count == 0 else self._max,
                "p50": self._quantile_locked(0.5),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
            }

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def minimum(self) -> float | None:
        with self._lock:
            return None if self._count == 0 else self._min

    @property
    def maximum(self) -> float | None:
        with self._lock:
            return None if self._count == 0 else self._max

    @property
    def mean(self) -> float | None:
        with self._lock:
            return None if self._count == 0 else self._sum / self._count


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric plus its labeled children.

    With empty ``labelnames`` the family holds exactly one child,
    reachable via :meth:`labels` with no arguments (or the convenience
    delegators ``inc``/``set``/``observe``/``value``).
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> None:
        if kind not in _KINDS:
            raise ConfigurationError(f"unknown metric kind {kind!r}")
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = _validate_labels(labelnames)
        self._buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        if not self.labelnames:
            self._children[()] = self._new_child()

    def _new_child(self):
        if self.kind == "histogram":
            return Histogram(self._buckets or DEFAULT_LATENCY_BUCKETS)
        return _KINDS[self.kind]()

    def labels(self, **labels: str):
        """The child for one label combination (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels {self.labelnames!r}, "
                f"got {tuple(labels)!r}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    def children(self) -> dict[tuple[str, ...], Counter | Gauge | Histogram]:
        """A point-in-time copy of the children map."""
        with self._lock:
            return dict(self._children)

    # -- unlabeled convenience delegators ---------------------------------

    def _sole_child(self):
        if self.labelnames:
            raise ConfigurationError(
                f"metric {self.name!r} is labeled; call .labels(...) first"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._sole_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._sole_child().dec(amount)

    def set(self, value: float) -> None:
        self._sole_child().set(value)

    def observe(self, value: float) -> None:
        self._sole_child().observe(value)

    @property
    def value(self) -> float:
        return self._sole_child().value


class MetricsRegistry:
    """A thread-safe collection of metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call defines the family, later calls return it (and raise if the
    kind or label names disagree — two components can therefore share a
    registry without coordinating beyond the metric name).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    def _get_or_create(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, help_text, kind, labelnames, buckets)
                self._families[name] = family
                return family
        if family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as a {family.kind}"
            )
        if family.labelnames != _validate_labels(labelnames):
            raise ConfigurationError(
                f"metric {name!r} already registered with labels "
                f"{family.labelnames!r}"
            )
        return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._get_or_create(name, help_text, "counter", labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._get_or_create(name, help_text, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> MetricFamily:
        return self._get_or_create(name, help_text, "histogram", labelnames, buckets)

    def families(self) -> list[MetricFamily]:
        """All families, sorted by name (stable exposition order)."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> MetricFamily | None:
        with self._lock:
            return self._families.get(name)

    def value(self, name: str, **labels: str) -> float:
        """Convenience: current value of one counter/gauge child (0 if
        absent).  Without labels, a labeled family's children summed."""
        family = self.get(name)
        if family is None:
            return 0.0
        if not labels and family.labelnames:
            return sum(child.value for child in family.children().values())
        try:
            child = family.labels(**labels) if labels else family._sole_child()
        except ConfigurationError:
            return 0.0
        return child.value

    def snapshot(self) -> dict:
        """A nested plain-dict view of every series (JSON-friendly).

        Shape: ``{name: {"kind", "help", "labelnames", "series": [
        {"labels": {...}, "value": ...} | {"labels": {...}, **histogram}]}}``.
        """
        out: dict[str, dict] = {}
        for family in self.families():
            series = []
            for key, child in sorted(family.children().items()):
                labels = dict(zip(family.labelnames, key))
                if family.kind == "histogram":
                    series.append({"labels": labels, **child.snapshot()})
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "series": series,
            }
        return out


#: The process-wide default registry.  Client-side components record
#: here unless given their own registry; ``reset_default_registry`` is a
#: test hook only.
_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    return _DEFAULT


def reset_default_registry() -> MetricsRegistry:
    """Replace the process default with a fresh registry (tests only)."""
    global _DEFAULT
    _DEFAULT = MetricsRegistry()
    return _DEFAULT
