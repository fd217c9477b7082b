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

Metric names accept dots as namespace separators (``scheduler.kills_total``)
and normalise them to underscores for exposition.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

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


class Counter(_Instrument):
    """A monotonically increasing total, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    @property
    def total(self) -> float:
        """Sum across every label combination."""
        return sum(self._values.values())

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        return [(dict(key), value) for key, value in self._values.items()]

    def render(self) -> List[str]:
        lines = self._header()
        for key in sorted(self._values):
            lines.append(
                f"{self.name}{_render_labels(key)} "
                f"{_format_value(self._values[key])}"
            )
        if not self._values:
            lines.append(f"{self.name} 0")
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "samples": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ],
        }


class Gauge(_Instrument):
    """A value that can rise and fall."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def render(self) -> List[str]:
        lines = self._header()
        for key in sorted(self._values):
            lines.append(
                f"{self.name}{_render_labels(key)} "
                f"{_format_value(self._values[key])}"
            )
        if not self._values:
            lines.append(f"{self.name} 0")
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "samples": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ],
        }


class Histogram(_Instrument):
    """An observation stream with quantile summaries.

    Observations are retained per label set (experiments are bounded,
    so memory stays proportional to epochs trained); quantiles are
    computed on demand by linear interpolation over the sorted sample,
    the same estimator ``numpy.quantile`` defaults to.
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
        self._observations: Dict[LabelKey, List[float]] = {}
        self._sorted: Dict[LabelKey, bool] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        bucket = self._observations.get(key)
        if bucket is None:
            bucket = self._observations[key] = []
        bucket.append(float(value))
        self._sorted[key] = False

    def _sorted_bucket(self, key: LabelKey) -> List[float]:
        bucket = self._observations.get(key, [])
        if not self._sorted.get(key, True):
            bucket.sort()
            self._sorted[key] = True
        return bucket

    def count(self, **labels: Any) -> int:
        return len(self._observations.get(_label_key(labels), []))

    def sum(self, **labels: Any) -> float:
        return float(sum(self._observations.get(_label_key(labels), [])))

    def quantile(self, q: float, **labels: Any) -> float:
        """Interpolated ``q``-quantile of the observations (NaN if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        bucket = self._sorted_bucket(_label_key(labels))
        if not bucket:
            return float("nan")
        if len(bucket) == 1:
            return bucket[0]
        position = q * (len(bucket) - 1)
        low = int(math.floor(position))
        high = min(low + 1, len(bucket) - 1)
        fraction = position - low
        return bucket[low] * (1.0 - fraction) + bucket[high] * fraction

    def render(self) -> List[str]:
        lines = self._header()
        for key in sorted(self._observations):
            bucket = self._sorted_bucket(key)
            for q in self.quantiles:
                extra = (("quantile", _format_value(q)),)
                lines.append(
                    f"{self.name}{_render_labels(key, extra)} "
                    f"{_format_value(self.quantile(q, **dict(key)))}"
                )
            lines.append(
                f"{self.name}_count{_render_labels(key)} {len(bucket)}"
            )
            lines.append(
                f"{self.name}_sum{_render_labels(key)} "
                f"{_format_value(float(sum(bucket)))}"
            )
        if not self._observations:
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
                        _format_value(q): self.quantile(q, **dict(key))
                        for q in self.quantiles
                    },
                }
                for key, bucket in sorted(self._observations.items())
            ],
        }


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
