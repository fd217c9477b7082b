"""In-process metrics: counters, gauges, and quantile histograms.

A zero-dependency metrics registry modelled on the Prometheus client
data model, scoped to one experiment run.  Three instrument kinds:

* :class:`Counter` — monotonically increasing totals, optionally split
  by labels (``scheduler_kills_total{reason="domain_poor"}``).
* :class:`Gauge` — a value that goes up and down (the promising-slot
  ratio, idle-queue depth).
* :class:`Histogram` — observation streams summarised by count, sum,
  and interpolated quantiles (epoch durations, predictor fit times).

The registry renders a Prometheus-style text exposition
(:meth:`MetricsRegistry.render_text`) and a JSON-serialisable dict
(:meth:`MetricsRegistry.to_dict`).  Instrument handles are cheap to
call and safe to cache; all state lives in plain dicts and lists, so
the cost of an ``inc``/``observe`` is one dict lookup and an append.

A counter or gauge can instead be a *view* (the Prometheus collector
pattern): :meth:`Counter.collect_from` binds a source over state its
owner keeps anyway, called at every read; read it under the lock its
owner writes under.  A histogram writer may bind its observation list
once (:meth:`Histogram.bucket`) and append to it.

Metric names accept dots as namespace separators (``scheduler.kills_total``)
and normalise them to underscores for exposition.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_label_value",
    "render_label_set",
    "format_value",
]

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Quantiles exposed by default for every histogram.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)

LabelKey = Tuple[Tuple[str, str], ...]


def normalize_name(name: str) -> str:
    """Map a dotted metric name onto the exposition charset."""
    normalized = name.replace(".", "_").replace("-", "_")
    if not _NAME_RE.match(normalized):
        raise ValueError(f"invalid metric name {name!r}")
    return normalized


#: Returns a view's samples: label key -> value.
Source = Callable[[], Dict[LabelKey, Any]]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    if not labels:  # the common, unlabelled case skips the sort
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote, and newline must be backslash-escaped."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def render_label_set(items: Tuple[Tuple[str, str], ...]) -> str:
    """Render ``{k="v",...}`` with values escaped ('' for no labels)."""
    if not items:
        return ""
    body = ",".join(f'{k}="{escape_label_value(v)}"' for k, v in items)
    return "{" + body + "}"


def _render_labels(key: LabelKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    return render_label_set(key + extra)


def format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return f"{value:.10g}"


_format_value = format_value


class _Instrument:
    """Shared plumbing for one named metric family."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = normalize_name(name)
        self.help = help
        self._values: Dict[LabelKey, Any] = {}

    def render(self) -> List[str]:
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def _header(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class _Scalar(_Instrument):
    """One float per label set: the reads counters and gauges share."""

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._sources: List[Source] = []

    def collect_from(self, source: Source) -> None:
        """Make this instrument a view: each read merges ``source()``
        (label key -> value) into the written samples.  Several sources
        (runs sharing one registry, in order) merge as if each had
        written its samples in turn."""
        self._sources.append(source)

    def _read(self) -> Dict[LabelKey, float]:
        if not self._sources:
            return self._values
        values = dict(self._values)
        for source in self._sources:
            for key, value in source().items():
                self._merge(values, key, value)
        return values

    def _merge(self, values: Dict[LabelKey, float], key: LabelKey, value: float) -> None:
        raise NotImplementedError

    def value(self, **labels: Any) -> float:
        return self._read().get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        return [(dict(key), value) for key, value in self._read().items()]

    def render(self) -> List[str]:
        values = self._read()
        lines = self._header()
        for key in sorted(values):
            lines.append(
                f"{self.name}{_render_labels(key)} "
                f"{_format_value(values[key])}"
            )
        if not values:
            lines.append(f"{self.name} 0")
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "samples": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._read().items())
            ],
        }


class Counter(_Scalar):
    """A monotonically increasing total, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def _merge(self, values: Dict[LabelKey, float], key: LabelKey, value: float) -> None:
        values[key] = values.get(key, 0.0) + value

    @property
    def total(self) -> float:
        """Sum across every label combination."""
        return sum(self._read().values())


class Gauge(_Scalar):
    """A value that can rise and fall."""

    kind = "gauge"

    def _merge(self, values: Dict[LabelKey, float], key: LabelKey, value: float) -> None:
        values[key] = float(value)  # the last source to have one wins

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)


class Histogram(_Instrument):
    """An observation stream with quantile summaries.

    Observations are retained per label set (experiments are bounded,
    so memory stays proportional to epochs trained); quantiles are
    computed on demand by linear interpolation over a sorted copy of
    the sample, the same estimator ``numpy.quantile`` defaults to.  The
    sum is always taken in observation order, so it does not depend on
    whether a quantile was read first.
    """

    kind = "summary"

    def __init__(
        self,
        name: str,
        help: str = "",
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> None:
        super().__init__(name, help)
        for q in quantiles:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantile {q} outside [0, 1]")
        # Exposition order must be ascending regardless of caller order
        # (scrapers treat the quantile series like histogram buckets).
        self.quantiles = tuple(sorted(dict.fromkeys(quantiles)))
        #: Sorted copy per bucket; buckets only grow, so same length = current.
        self._sorted: Dict[LabelKey, List[float]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        self.bucket(**labels).append(float(value))

    def bucket(self, **labels: Any) -> List[float]:
        """The observation list of ``labels``: a writer that binds it
        once appends floats to it instead of calling :meth:`observe`."""
        key = _label_key(labels)
        bucket = self._values.get(key)
        if bucket is None:
            bucket = self._values[key] = []
        return bucket

    def _read(self) -> Dict[LabelKey, List[float]]:
        # A bound bucket nobody appended to yet is not a sample.
        return {key: bucket for key, bucket in self._values.items() if bucket}

    def _sorted_bucket(self, key: LabelKey, bucket: List[float]) -> List[float]:
        ordered = self._sorted.get(key)
        if ordered is None or len(ordered) != len(bucket):
            ordered = self._sorted[key] = sorted(bucket)
        return ordered

    def count(self, **labels: Any) -> int:
        return len(self._read().get(_label_key(labels), []))

    def sum(self, **labels: Any) -> float:
        return float(sum(self._read().get(_label_key(labels), [])))

    def quantile(self, q: float, **labels: Any) -> float:
        """Interpolated ``q``-quantile of the observations (NaN if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        key = _label_key(labels)
        return _interpolate(
            self._sorted_bucket(key, self._read().get(key, [])), q
        )

    def _quantiles(self, key: LabelKey, bucket: List[float]) -> Dict[float, float]:
        ordered = self._sorted_bucket(key, bucket)
        return {q: _interpolate(ordered, q) for q in self.quantiles}

    def render(self) -> List[str]:
        observations = self._read()
        lines = self._header()
        for key in sorted(observations):
            bucket = observations[key]
            for q, value in self._quantiles(key, bucket).items():
                extra = (("quantile", _format_value(q)),)
                lines.append(
                    f"{self.name}{_render_labels(key, extra)} "
                    f"{_format_value(value)}"
                )
            lines.append(
                f"{self.name}_count{_render_labels(key)} {len(bucket)}"
            )
            lines.append(
                f"{self.name}_sum{_render_labels(key)} "
                f"{_format_value(float(sum(bucket)))}"
            )
        if not observations:
            lines.append(f"{self.name}_count 0")
            lines.append(f"{self.name}_sum 0")
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "samples": [
                {
                    "labels": dict(key),
                    "count": len(bucket),
                    "sum": float(sum(bucket)),
                    "quantiles": {
                        _format_value(q): value
                        for q, value in self._quantiles(key, bucket).items()
                    },
                }
                for key, bucket in sorted(self._read().items())
            ],
        }


def _interpolate(ordered: List[float], q: float) -> float:
    if not ordered:
        return float("nan")
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Re-requesting a name returns the existing instrument; asking for it
    as a different kind raises — one name, one meaning, for the whole
    experiment.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        normalized = normalize_name(name)
        existing = self._instruments.get(normalized)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {normalized!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        instrument = cls(normalized, help=help, **kwargs)
        self._instruments[normalized] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, quantiles=quantiles)

    def instruments(self) -> Iterable[_Instrument]:
        return self._instruments.values()

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(normalize_name(name))

    def render_text(self) -> str:
        """Prometheus-style text exposition of every instrument."""
        lines: List[str] = []
        for name in sorted(self._instruments):
            lines.extend(self._instruments[name].render())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable export of every instrument."""
        return {
            name: instrument.to_dict()
            for name, instrument in sorted(self._instruments.items())
        }
