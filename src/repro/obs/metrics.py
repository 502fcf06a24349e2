"""The metrics registry: counters, gauges, and streaming histograms.

Prometheus-shaped but zero-dependency: a registry holds metric
*families* (one per name), each family holds one child per label set.
Labels are plain keyword arguments at the call site::

    registry.counter("http_responses_total", status="429").inc()
    registry.histogram("session_join_seconds", protocol="rtmp").observe(2.4)

Histograms keep fixed cumulative buckets (for the Prometheus dump) plus
the raw values up to a cap, so quantiles are **exact** on small inputs
and bucket-interpolated beyond the cap.  Nothing here consumes RNG or
touches the event loop — instrumentation cannot perturb a simulation.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (seconds-flavoured, exponential).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Raw values kept per histogram child before falling back to buckets.
DEFAULT_VALUE_CAP = 10_000

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can move both ways, with a high-water mark."""

    __slots__ = ("value", "high_water")

    def __init__(self) -> None:
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)


class Histogram:
    """Streaming histogram: cumulative fixed buckets + bounded raw values.

    Quantiles are nearest-rank exact while fewer than ``value_cap``
    observations have been made (the determinism tests rely on this);
    afterwards they fall back to linear interpolation inside the fixed
    buckets.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max",
                 "_values", "_value_cap")

    def __init__(
        self,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        value_cap: int = DEFAULT_VALUE_CAP,
    ) -> None:
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)  # +inf
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._values: Optional[List[float]] = []
        self._value_cap = value_cap

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        values = self._values
        if values is not None:
            if len(values) < self._value_cap:
                values.append(value)
            else:
                self._values = None  # too big: buckets only from here on

    def _sorted_values(self) -> Optional[List[float]]:
        """The raw values, sorted in place at read time.

        :meth:`observe` only appends.  The sort is stable, so values
        that compare equal (``0.0`` and ``-0.0``) keep their arrival
        order, which is where insertion in order would have put them.
        """
        if self._values is not None:
            self._values.sort()
        return self._values

    @property
    def exact(self) -> bool:
        """True while quantiles are computed from the raw values."""
        return self._values is not None

    @property
    def values_dropped(self) -> int:
        """Raw samples unavailable for exact quantiles.

        Zero while under the value cap; once the cap is exceeded the
        retained samples are discarded and every observation is
        bucket-only, so the full count reads as dropped — exporters
        surface this so truncated telemetry is never mistaken for
        complete telemetry.
        """
        return 0 if self._values is not None else self.count

    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank quantile (exact) or bucket-interpolated estimate."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return None
        values = self._sorted_values()
        if values is not None:
            rank = max(1, math.ceil(q * len(values)))
            return values[rank - 1]
        target = q * self.count
        cumulative = 0
        lower = self.min
        for index, bucket_count in enumerate(self.bucket_counts):
            upper = (self.buckets[index] if index < len(self.buckets)
                     else self.max)
            if bucket_count:
                cumulative += bucket_count
                if cumulative >= target:
                    within = 1.0 - (cumulative - target) / bucket_count
                    return lower + (upper - lower) * within
                lower = upper
        return self.max

    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children (label sets) of one metric name."""

    def __init__(self, name: str, kind: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = tuple(buckets)
        self.children: Dict[LabelKey, object] = {}

    def child(self, labels: Dict[str, object]) -> object:
        key = _label_key(labels)
        existing = self.children.get(key)
        if existing is None:
            if self.kind == "histogram":
                existing = Histogram(buckets=self.buckets)
            else:
                existing = _KINDS[self.kind]()
            self.children[key] = existing
        return existing


class MetricsRegistry:
    """Names and hands out metric families; the exporters walk it."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _family(self, name: str, kind: str, help: str,
                buckets: Sequence[float] = DEFAULT_BUCKETS) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help, buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        if help and not family.help:
            family.help = help
        return family

    # --------------------------------------------------------------- factories

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        return self._family(name, "counter", help).child(labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        return self._family(name, "gauge", help).child(labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return self._family(name, "histogram", help, buckets).child(labels)  # type: ignore[return-value]

    def declare(self, name: str, kind: str, help: str = "") -> MetricFamily:
        """Register a family without creating a child, so the series
        shows up in exports (HELP/TYPE at least) even before — or
        without — its first event.  A declared histogram has the
        :data:`DEFAULT_BUCKETS`."""
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        return self._family(name, kind, help, DEFAULT_BUCKETS)

    # ------------------------------------------------------------ snapshots

    def snapshot(self) -> dict:
        """A plain-data, picklable dump of every family and child.

        The payload crosses process boundaries (parallel study workers
        ship their registries back to the parent), so it contains only
        builtins: lists, dicts, strings, numbers.
        """
        families = []
        for family in self.families():
            children = []
            for key in sorted(family.children):
                child = family.children[key]
                entry: Dict[str, object] = {"labels": [list(pair) for pair in key]}
                if family.kind == "counter":
                    entry["value"] = child.value
                elif family.kind == "gauge":
                    entry["value"] = child.value
                    entry["high_water"] = child.high_water
                else:
                    entry["count"] = child.count
                    entry["sum"] = child.sum
                    entry["min"] = child.min
                    entry["max"] = child.max
                    entry["bucket_counts"] = list(child.bucket_counts)
                    values = child._sorted_values()
                    entry["values"] = None if values is None else list(values)
                children.append(entry)
            families.append({
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "buckets": list(family.buckets),
                "children": children,
            })
        return {"families": families}

    def merge_from(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Merge semantics are associative and commutative, so per-worker
        snapshots can be folded in any grouping and produce the same
        registry: counters and histograms add, gauges keep the maximum
        of ``value`` and ``high_water`` (workers report progress
        concurrently, so "furthest along" is the only order-free
        reading).  A family already registered under a different kind
        or with different histogram buckets raises :class:`ValueError`.
        """
        for family_data in snapshot.get("families", []):
            family = self._family(
                family_data["name"], family_data["kind"],
                family_data.get("help", ""),
                tuple(family_data.get("buckets", DEFAULT_BUCKETS)),
            )
            if (family.kind == "histogram"
                    and tuple(sorted(family_data["buckets"])) != family.buckets):
                raise ValueError(
                    f"histogram {family.name!r}: snapshot bucket layout "
                    f"does not match the registered family"
                )
            for entry in family_data["children"]:
                labels = {k: v for k, v in entry["labels"]}
                child = family.child(labels)
                if family.kind == "counter":
                    child.inc(entry["value"])
                elif family.kind == "gauge":
                    if entry["value"] > child.value:
                        child.value = entry["value"]
                    if entry["high_water"] > child.high_water:
                        child.high_water = entry["high_water"]
                else:
                    self._merge_histogram(family, child, entry)

    @staticmethod
    def _merge_histogram(family: MetricFamily, child: Histogram, entry: dict) -> None:
        incoming_counts = entry["bucket_counts"]
        if len(incoming_counts) != len(child.bucket_counts):
            raise ValueError(
                f"histogram {family.name!r}: snapshot bucket layout does "
                f"not match the registered family"
            )
        child.count += entry["count"]
        child.sum += entry["sum"]
        child.min = min(child.min, entry["min"])
        child.max = max(child.max, entry["max"])
        for index, bucket_count in enumerate(incoming_counts):
            child.bucket_counts[index] += bucket_count
        incoming_values = entry["values"]
        if child._values is None or incoming_values is None:
            child._values = None
        elif len(child._values) + len(incoming_values) > child._value_cap:
            child._values = None  # past the cap: buckets only, like observe()
        else:
            merged = child._values + list(incoming_values)
            merged.sort()
            child._values = merged

    # ------------------------------------------------------------------- walk

    def families(self) -> List[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def collect(self) -> Iterator[Tuple[MetricFamily, LabelKey, object]]:
        """Yield (family, label_key, child) over every child, sorted."""
        for family in self.families():
            for key in sorted(family.children):
                yield family, key, family.children[key]

    def get(self, name: str, **labels: object) -> Optional[object]:
        """Look up an existing child without creating it."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.children.get(_label_key(labels))
