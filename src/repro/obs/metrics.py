"""Namespaced metrics instruments: counters and histograms.

Instrument names follow the ``subsystem.verb.noun`` convention
(``mpisim.send.eager``, ``gpurt.kernel.queue_wait_us``): lowercase
dotted paths whose first component names the emitting subsystem, so a
flat metrics snapshot groups naturally and the DESIGN.md taxonomy stays
greppable.

Two implementations share one API:

* :class:`MetricsRegistry` — the live registry, caching one instrument
  object per name and snapshotting to a plain dict for JSON export.
* :class:`NullMetrics` — the disabled registry; every accessor returns
  a shared no-op instrument whose mutators do nothing.  This is the
  zero-overhead path: with observability off, a hot-path increment is
  one attribute lookup and one empty call.
"""

from __future__ import annotations

import bisect
import re
from typing import Iterable

from ..errors import ObservabilityError

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

#: default histogram bucket upper bounds (generic latency-ish spread)
DEFAULT_BUCKETS = (
    1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1,
    1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6,
)


def validate_name(name: str) -> str:
    """Enforce the ``subsystem.verb.noun`` naming convention."""
    if not _NAME_RE.match(name):
        raise ObservabilityError(
            f"instrument name {name!r} violates the dotted "
            "subsystem.verb.noun convention (lowercase [a-z0-9_], "
            "at least two dot-separated components)"
        )
    return name


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc({amount}))"
            )
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with quantile estimates.

    ``bounds`` are *inclusive upper* bucket bounds (a value exactly on a
    bound lands in that bound's bucket); values above the last bound go
    to the overflow bucket.  Quantiles are estimated as the upper bound
    of the bucket where the cumulative count crosses the rank — for the
    overflow bucket, the maximum observed value.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max",
                 "values")

    def __init__(self, name: str, bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ObservabilityError(f"histogram {name} needs at least one bucket")
        if any(b <= a for a, b in zip(self.bounds, self.bounds[1:])):
            raise ObservabilityError(
                f"histogram {name} bounds must be strictly increasing: "
                f"{self.bounds!r}"
            )
        #: one slot per bound plus the overflow bucket
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: raw observations, kept only by recording registries (the
        #: parallel-worker path) so a merge can *replay* them and land
        #: on bit-identical floating-point totals
        self.values: list | None = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.values is not None:
            self.values.append(value)

    def observe_many(self, values: list) -> None:
        """Fold a batch of observations in one pass (the merge path).

        Equivalent to ``for v in values: self.observe(v)`` bit for bit:
        bucket counts come from one sort plus a cumulative bisect per
        bound (instead of a bisect per value), while ``total`` still
        accumulates sequentially in the *original* list order — float
        addition is order-sensitive, and the merged registry must land
        on the identical ``total``/``mean`` a serial registry produced.
        """
        if not values:
            return
        ordered = sorted(values)
        counts = self.counts
        previous = 0
        for idx, bound in enumerate(self.bounds):
            cumulative = bisect.bisect_right(ordered, bound)
            counts[idx] += cumulative - previous
            previous = cumulative
        counts[len(self.bounds)] += len(ordered) - previous
        self.count += len(values)
        total = self.total
        for value in values:
            total += value
        self.total = total
        if ordered[0] < self.min:
            self.min = ordered[0]
        if ordered[-1] > self.max:
            self.max = ordered[-1]
        if self.values is not None:
            self.values.extend(values)

    @property
    def mean(self) -> float | None:
        """Mean of observed values; ``None`` before any observation."""
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Bucket-resolution quantile estimate (0 <= q <= 1).

        An empty histogram has no quantiles: returns ``None`` instead
        of a fabricated 0.0 that would read as a real measurement.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile out of range: {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for idx, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= rank and n:
                if idx == len(self.bounds):
                    return self.max
                return self.bounds[idx]
        return self.max

    def snapshot(self) -> dict:
        out = {
            "type": "histogram",
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {
                **{f"le_{b:g}": n for b, n in zip(self.bounds, self.counts)},
                "overflow": self.counts[-1],
            },
        }
        if self.count:
            # quantiles of an empty histogram don't exist; omitting the
            # keys keeps JSON consumers from averaging fabricated zeros
            out["p50"] = self.quantile(0.50)
            out["p95"] = self.quantile(0.95)
            out["p99"] = self.quantile(0.99)
        return out


class MetricsRegistry:
    """Live instrument registry, one object per validated name.

    With ``record_values=True`` every histogram additionally retains
    its raw observations so :meth:`dump_state` can ship them across a
    process boundary; :meth:`merge_state` on the receiving registry
    replays them in order, which keeps float accumulation (``total``,
    and therefore ``mean``) bit-identical to a registry that observed
    the same values directly.  Parallel study workers record; the
    parent merges.
    """

    enabled = True

    def __init__(self, record_values: bool = False) -> None:
        self._instruments: dict[str, Counter | Histogram] = {}
        self._record_values = record_values

    def _get(self, name: str, cls, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(validate_name(name), *args)
            if self._record_values and cls is Histogram:
                instrument.values = []
            self._instruments[name] = instrument
        elif type(instrument) is not cls:
            raise ObservabilityError(
                f"instrument {name!r} already registered as "
                f"{type(instrument).__name__}, requested {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, bounds)

    def declare(self, names: Iterable[str]) -> None:
        """Pre-register counters so they appear (as zero) in snapshots
        even when their code path never fires in a given run."""
        for name in names:
            self.counter(name)

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict:
        """Flat ``{name: {...}}`` dict, stable name order, JSON-ready."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    # -- process-boundary merge (the parallel study path) ------------------
    def dump_state(self) -> dict:
        """A picklable, mergeable image of every instrument.

        Counters travel as their value; histograms travel as
        their bounds plus the raw observation list (requires a registry
        built with ``record_values=True`` — a populated histogram that
        never recorded cannot be merged losslessly, so dumping one is
        an error rather than a silent approximation).
        """
        state: dict[str, dict] = {}
        for name, instrument in self._instruments.items():
            if isinstance(instrument, Counter):
                state[name] = {"kind": "counter", "value": instrument.value}
            else:
                if instrument.values is None and instrument.count:
                    raise ObservabilityError(
                        f"histogram {name!r} holds {instrument.count} "
                        "observations but the registry was not built with "
                        "record_values=True; its state cannot be merged "
                        "losslessly"
                    )
                state[name] = {
                    "kind": "histogram",
                    "bounds": instrument.bounds,
                    "values": list(instrument.values or ()),
                }
        return state

    def merge_state(self, state: dict) -> None:
        """Fold one :meth:`dump_state` image into this registry.

        Counter deltas add (integer increments, so addition is exact);
        histogram observations fold in through
        :meth:`Histogram.observe_many` — one sort per merge instead of a
        bisect per value — whose float totals still accumulate in
        original observation order, so bucket counts *and* totals match
        a serial registry bit for bit.
        """
        for name, entry in state.items():
            kind = entry["kind"]
            if kind == "counter":
                counter = self.counter(name)
                if entry["value"]:
                    counter.inc(entry["value"])
            elif kind == "histogram":
                histogram = self.histogram(name, bounds=entry["bounds"])
                histogram.observe_many(entry["values"])
            else:
                raise ObservabilityError(
                    f"unknown instrument kind {kind!r} for {name!r}"
                )


class _NullInstrument:
    """Answers every instrument mutator with a no-op."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    mean = 0.0

    def inc(self, amount: int | float = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {}


NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The disabled registry: shared no-op instruments, empty snapshot."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str, bounds=DEFAULT_BUCKETS) -> _NullInstrument:
        return NULL_INSTRUMENT

    def declare(self, names: Iterable[str]) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> dict:
        return {}


NULL_METRICS = NullMetrics()

#: canonical instrument set, declared up front by an enabled context so
#: every metrics snapshot carries the full taxonomy (zeros included)
DECLARED_COUNTERS = (
    "mpisim.send.eager",
    "mpisim.send.rendezvous",
    "mpisim.retransmit.fired",
    "netsim.link.reserved",
    "netsim.link.bytes",
    "netsim.route.chosen",
    "netsim.route.rerouted",
    "gpurt.kernel.launched",
    "gpurt.kernel.completed",
    "gpurt.dma.issued",
    "gpurt.dma.bytes",
    "faults.injected.drop",
    "faults.injected.straggler",
    "faults.injected.gpu_kernel",
    "faults.injected.gpu_memcpy",
    "faults.injected.nodefail",
    "faults.injected.sample_bursts",
    "study.cell.completed",
    "study.cell.degraded",
    "cache.cell.hit",
    "cache.cell.miss",
    "cache.cell.store",
    "cache.cell.invalidated",
    "cache.cell.store_failed",
)
