"""Unified metrics: primitives, labeled families, Prometheus exposition.

The counter/gauge/histogram primitives started life in
``repro.serve.metrics`` (which is now a thin facade over this module);
here they gain *labeled families* — one named metric with a fixed label
schema and one child primitive per label-value combination — and a
process-wide :class:`MetricsRegistry` that renders everything in the
Prometheus text exposition format.

Instrumented subsystems register either families (``REGISTRY.counter``)
or whole collectors (``REGISTRY.register_collector``) that snapshot an
existing metric object — the serving runtime's :class:`~repro.serve.
metrics.ServeMetrics` uses the latter so its JSON dumps stay
bit-identical while its values also appear in ``prometheus_text()``.

Everything here is thread-safe and stdlib-only.
"""

from __future__ import annotations

import math
import threading
import time

__all__ = ["Counter", "Gauge", "LatencyHistogram", "CounterFamily",
           "GaugeFamily", "HistogramFamily", "MetricsRegistry", "REGISTRY",
           "escape_label_value", "unescape_label_value", "set_build_info",
           "build_info", "process_collector", "uptime_s"]


class Counter:
    """A monotonically increasing counter (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value with a high-water mark (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0
        self._max = 0

    def set(self, value) -> None:
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value

    @property
    def value(self):
        return self._value

    @property
    def max(self):
        return self._max


class LatencyHistogram:
    """Log-bucketed latency histogram with percentile queries.

    Buckets are powers of ``2**(1/4)`` starting at 1 microsecond — about
    66 buckets cover 1 us .. 100 s with <=19% relative error per bucket,
    which is plenty for p50/p95/p99 reporting.  Exact min/max/sum are
    tracked alongside, so mean and extremes are not quantized.

    Quantile queries on an *empty* histogram return ``None`` (there is
    no such latency), and :meth:`summary` mirrors that with ``None``
    fields; renderers print ``-`` for them.
    """

    BASE = 2.0 ** 0.25
    FLOOR = 1e-6  # seconds
    #: Mantissa thresholds splitting one binary exponent into the four
    #: quarter-power buckets.
    _T1 = 2.0 ** 0.25
    _T2 = 2.0 ** 0.5
    _T3 = 2.0 ** 0.75

    def __init__(self):
        self._lock = threading.Lock()
        self._buckets: dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0

    def _index(self, value: float) -> int:
        if value <= self.FLOOR:
            return 0
        # int(log(value/FLOOR, 2**0.25)) + 1 without the log call:
        # frexp gives value/FLOOR = m * 2**e exactly, so the bucket is
        # four per binary exponent plus m's position among the
        # quarter-power thresholds.  record() sits on the serving hot
        # path (several calls per request), where this is ~2x cheaper.
        m, e = math.frexp(value / self.FLOOR)
        m *= 2.0
        k = (0 if m < self._T1 else 1 if m < self._T2
             else 2 if m < self._T3 else 3)
        return max(0, 4 * (e - 1) + k + 1)

    def record(self, seconds: float) -> None:
        seconds = float(seconds)
        if seconds < 0:
            raise ValueError("latency cannot be negative")
        idx = self._index(seconds)
        with self._lock:
            self._buckets[idx] = self._buckets.get(idx, 0) + 1
            self._count += 1
            self._sum += seconds
            if seconds < self._min:
                self._min = seconds
            if seconds > self._max:
                self._max = seconds

    def record_n(self, seconds: float, n: int) -> None:
        """Record ``n`` identical samples under one lock hold.

        Equivalent to ``n`` :meth:`record` calls; used for batch-wide
        stage latencies where every request in a settled batch shares
        the same value, cutting hot-path lock traffic to one
        acquisition per batch.
        """
        if n <= 0:
            return
        seconds = float(seconds)
        if seconds < 0:
            raise ValueError("latency cannot be negative")
        idx = self._index(seconds)
        with self._lock:
            self._buckets[idx] = self._buckets.get(idx, 0) + n
            self._count += n
            self._sum += seconds * n
            if seconds < self._min:
                self._min = seconds
            if seconds > self._max:
                self._max = seconds

    @classmethod
    def merged(cls, hists) -> "LatencyHistogram":
        """A new histogram equal to recording every sample in ``hists``.

        Bucket-exact (all histograms share the same bucket edges), so
        quantiles of the merge match quantiles of the union of samples
        to within the usual bucket quantization.
        """
        out = cls()
        for hist in hists:
            with hist._lock:
                buckets = dict(hist._buckets)
                count, total = hist._count, hist._sum
                lo, hi = hist._min, hist._max
            for idx, n in buckets.items():
                out._buckets[idx] = out._buckets.get(idx, 0) + n
            out._count += count
            out._sum += total
            if lo < out._min:
                out._min = lo
            if hi > out._max:
                out._max = hi
        return out

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float):
        """Latency at quantile ``q`` in [0, 1] (bucket upper bound).

        Returns ``None`` when the histogram has recorded no samples.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if not self._count:
                return None
            rank = max(1, math.ceil(q * self._count))
            seen = 0
            for idx in sorted(self._buckets):
                seen += self._buckets[idx]
                if seen >= rank:
                    if idx == 0:
                        return self.FLOOR
                    upper = self.FLOOR * self.BASE ** idx
                    return min(upper, self._max)
            return self._max

    def summary(self) -> dict:
        if not self._count:
            return {"count": 0, "mean_s": None, "min_s": None,
                    "max_s": None, "p50_s": None, "p95_s": None,
                    "p99_s": None}
        return {
            "count": self._count,
            "mean_s": self.mean,
            "min_s": self._min,
            "max_s": self._max,
            "p50_s": self.percentile(0.50),
            "p95_s": self.percentile(0.95),
            "p99_s": self.percentile(0.99),
        }


# ----------------------------------------------------------------------
# Labeled families
# ----------------------------------------------------------------------
class _Family:
    """A named metric with a fixed label schema.

    ``labels(**kv)`` returns the child primitive for one label-value
    combination, creating it on first use.  With no label names the
    family has exactly one anonymous child, reachable via ``labels()``
    (or the convenience pass-throughs on the subclasses).
    """

    kind = "untyped"
    _child_cls: type = Counter

    def __init__(self, name: str, help: str, labelnames=()):
        _check_metric_name(name)
        for label in labelnames:
            _check_metric_name(label)
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple, object] = {}

    def labels(self, **kv):
        if sorted(kv) != sorted(self.labelnames):
            raise ValueError(
                f"{self.name}: labels {sorted(kv)} != schema "
                f"{sorted(self.labelnames)}")
        key = tuple(str(kv[label]) for label in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._child_cls()
                self._children[key] = child
        return child

    def _items(self) -> list:
        with self._lock:
            return sorted(self._children.items())

    def samples(self) -> list:
        """``[(labels_dict, value), ...]`` snapshot (sorted, stable)."""
        return [(dict(zip(self.labelnames, key)), child.value)
                for key, child in self._items()]


class CounterFamily(_Family):
    kind = "counter"
    _child_cls = Counter

    def inc(self, amount: int = 1, **kv) -> None:
        self.labels(**kv).inc(amount)


class GaugeFamily(_Family):
    kind = "gauge"
    _child_cls = Gauge

    def set(self, value, **kv) -> None:
        self.labels(**kv).set(value)


class HistogramFamily(_Family):
    kind = "summary"
    _child_cls = LatencyHistogram

    def record(self, seconds: float, **kv) -> None:
        self.labels(**kv).record(seconds)

    def samples(self) -> list:
        """Prometheus summary triplets: quantiles plus _sum/_count."""
        out = []
        for key, hist in self._items():
            base = dict(zip(self.labelnames, key))
            for q in (0.5, 0.95, 0.99):
                value = hist.percentile(q)
                if value is not None:
                    out.append(({**base, "quantile": str(q)}, value))
            out.append((base, hist.sum, "_sum"))
            out.append((base, hist.count, "_count"))
        return out


def _check_metric_name(name: str) -> None:
    ok = name and (name[0].isalpha() or name[0] == "_") and all(
        c.isalnum() or c in "_:" for c in name)
    if not ok:
        raise ValueError(f"invalid metric/label name {name!r}")


def escape_label_value(value) -> str:
    """Escape a label value for the Prometheus text exposition format.

    Backslash, double-quote and newline are the three characters the
    format escapes inside quoted label values (in that order — the
    backslash first, so escape sequences introduced here are not
    themselves re-escaped).  Everything else, including ``/`` as used by
    cluster worker ids like ``shard-0/replica-1``, passes through
    verbatim.
    """
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def unescape_label_value(value: str) -> str:
    """Invert :func:`escape_label_value` (exact round-trip).

    A manual scan rather than chained ``str.replace`` because the
    inverse substitutions are order-sensitive: ``\\\\n`` must decode to
    a literal backslash + ``n``, not to a newline.
    """
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ("\\", '"'):
                out.append(nxt)
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


# Backwards-compatible internal alias.
_escape_label = escape_label_value


def _escape_help(text: str) -> str:
    """HELP lines escape only backslash and newline (no quoting)."""
    return str(text).replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        return repr(value)
    raise TypeError(f"non-numeric sample value {value!r}")


class MetricsRegistry:
    """Named metric families plus pluggable collectors.

    A *collector* is a zero-argument callable returning an iterable of
    ``(name, kind, help, samples)`` tuples, where ``samples`` is a list
    of ``(labels_dict, value)`` or ``(labels_dict, value, suffix)``.
    Collectors let existing metric objects (e.g. ``ServeMetrics``)
    expose themselves without being restructured into families.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._collectors: list = []
        #: Registration refcounts: two owners (e.g. two dashboards
        #: attached to one engine) may register the same collector;
        #: it stays until the last one unregisters.
        self._collector_counts: dict = {}

    # -- family constructors (idempotent on identical schemas) ---------
    def _family(self, cls, name: str, help: str, labelnames):
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if (type(family) is not cls
                        or family.labelnames != tuple(labelnames)):
                    raise ValueError(
                        f"metric {name!r} re-registered with a different "
                        "type or label schema")
                return family
            family = cls(name, help, labelnames)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labelnames=()) -> CounterFamily:
        return self._family(CounterFamily, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> GaugeFamily:
        return self._family(GaugeFamily, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames=()) -> HistogramFamily:
        return self._family(HistogramFamily, name, help, labelnames)

    # -- collectors ----------------------------------------------------
    def register_collector(self, collect):
        """Register ``collect()`` -> iterable of (name, kind, help,
        samples); returns ``collect`` so it can be used as a decorator.

        Registrations are refcounted (exposition stays deduplicated):
        the collector is dropped when unregistered as many times as it
        was registered.
        """
        with self._lock:
            count = self._collector_counts.get(collect, 0)
            self._collector_counts[collect] = count + 1
            if collect not in self._collectors:
                self._collectors.append(collect)
        return collect

    def unregister_collector(self, collect) -> None:
        with self._lock:
            count = self._collector_counts.get(collect, 0)
            if count > 1:
                self._collector_counts[collect] = count - 1
                return
            self._collector_counts.pop(collect, None)
            if collect in self._collectors:
                self._collectors.remove(collect)

    # -- exposition ----------------------------------------------------
    def collect(self) -> list:
        """Snapshot of every family and collector, sorted by name."""
        with self._lock:
            families = sorted(self._families.items())
            collectors = list(self._collectors)
        out = [(name, family.kind, family.help, family.samples())
               for name, family in families]
        for collector in collectors:
            out.extend(collector())
        out.sort(key=lambda row: row[0])
        return out

    def prometheus_text(self) -> str:
        """Render everything in the Prometheus text exposition format."""
        lines = []
        for name, kind, help, samples in self.collect():
            if help:
                lines.append(f"# HELP {name} {_escape_help(help)}")
            lines.append(f"# TYPE {name} {kind}")
            for sample in samples:
                labels, value = sample[0], sample[1]
                suffix = sample[2] if len(sample) > 2 else ""
                if labels:
                    body = ",".join(
                        f'{k}="{_escape_label(v)}"'
                        for k, v in sorted(labels.items()))
                    lines.append(f"{name}{suffix}{{{body}}} "
                                 f"{_format_value(value)}")
                else:
                    lines.append(f"{name}{suffix} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """JSON-ready snapshot: ``{name: {kind, samples}}``."""
        return {name: {"kind": kind,
                       "samples": [{"labels": s[0], "value": s[1],
                                    **({"suffix": s[2]} if len(s) > 2
                                       else {})}
                                   for s in samples]}
                for name, kind, help, samples in self.collect()}


#: The process-wide default registry.  ISS-engine counters and the
#: serving runtime register here; ``REGISTRY.prometheus_text()`` is the
#: one-stop scrape.
REGISTRY = MetricsRegistry()


# ----------------------------------------------------------------------
# Process identity and uptime
# ----------------------------------------------------------------------
#: Monotonic instant this module was imported — the process "birth" for
#: ``repro_uptime_seconds`` purposes.
_PROCESS_T0 = time.monotonic()

_BUILD_LOCK = threading.Lock()
_BUILD_INFO = {"version": "", "engine": ""}


def set_build_info(version: str | None = None,
                   engine: str | None = None) -> None:
    """Stamp what this process is running.

    Only the given fields change; repeated calls refine earlier ones
    (e.g. the CLI stamps ``version`` at import and ``engine`` once the
    subcommand has resolved it).  The values surface as
    labels on the ``repro_build_info`` info-gauge.
    """
    with _BUILD_LOCK:
        if version is not None:
            _BUILD_INFO["version"] = str(version)
        if engine is not None:
            _BUILD_INFO["engine"] = str(engine)


def build_info() -> dict:
    """Current ``{version, engine}`` labels (a copy)."""
    with _BUILD_LOCK:
        return dict(_BUILD_INFO)


def uptime_s() -> float:
    """Seconds since this process imported the metrics module."""
    return time.monotonic() - _PROCESS_T0


def process_collector() -> list:
    """Registry collector: build-info gauge + process uptime.

    ``repro_build_info`` follows the Prometheus *info metric* idiom —
    constant value 1, identity carried in the labels — so joins like
    ``something * on() group_left(version) repro_build_info`` work.
    """
    return [
        ("repro_build_info", "gauge",
         "Build identity of this process (constant 1; see labels).",
         [(build_info(), 1)]),
        ("repro_uptime_seconds", "gauge",
         "Seconds since process start (metrics module import).",
         [({}, uptime_s())]),
    ]


def _default_version() -> str:
    try:
        from .. import __version__
    except Exception:
        return "unknown"
    return __version__


set_build_info(version=_default_version())
REGISTRY.register_collector(process_collector)
