"""Prometheus text-format exposition of the metrics registry.

Renders the whole registry — counters, gauges, timing histograms — in
the Prometheus exposition format (version 0.0.4), the lingua franca a
latency SLO is scraped in. Naming follows the official conventions:

- dotted registry names flatten to underscores under a ``repro_``
  namespace prefix (``run_cache.hits`` → ``repro_run_cache_hits_total``);
- counters get the ``_total`` suffix;
- timing histograms render the canonical triplet: **cumulative**
  ``<name>_bucket{le="..."}`` series over the shared geometric bounds
  (plus the mandatory ``le="+Inf"``), ``<name>_sum`` (total seconds),
  and ``<name>_count`` — so ``histogram_quantile(0.99, ...)`` works on
  ``repro_bench_experiment_seconds_bucket`` out of the box.

Surfaces: ``python -m repro.bench ... --prom out.prom`` writes a
scrape-shaped file (for ``promtool`` or a pushgateway);
``tools/bench_diff.py --check-prometheus out.prom`` validates a written
file — the CI gate.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from repro.telemetry import metrics as _metrics

#: Metric-name namespace prefix for everything this package exports.
NAME_PREFIX = "repro_"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r"\s+(?P<value>\S+)$"
)


def metric_name(name: str, suffix: str = "") -> str:
    """Flatten a dotted registry name into a Prometheus metric name."""
    flattened = _INVALID_CHARS.sub("_", name)
    return f"{NAME_PREFIX}{flattened}{suffix}"


def parse_sample_key(key: str) -> "tuple[str, Dict[str, str]]":
    """Split a parsed sample key back into (metric name, labels)."""
    if "{" not in key:
        return key, {}
    name, _, raw = key.partition("{")
    labels: Dict[str, str] = {}
    for match in re.finditer(
        r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"', raw
    ):
        value = (
            match.group(2)
            .replace("\\n", "\n")
            .replace('\\"', '"')
            .replace("\\\\", "\\")
        )
        labels[match.group(1)] = value
    return name, labels


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return f"{value:.10g}"


def _format_bound(bound: float) -> str:
    return f"{bound:.10g}"


def prometheus_document(
    registry: Optional[_metrics.MetricsRegistry] = None,
) -> str:
    """The registry rendered as one exposition-format document."""
    registry = registry if registry is not None else _metrics.registry
    snapshot = registry.snapshot()
    lines: List[str] = []

    def _head(metric: str, kind: str, name: str) -> None:
        kind_word = "timing histogram" if kind == "histogram" else kind
        lines.append(f"# HELP {metric} repro {kind_word} {name}")
        lines.append(f"# TYPE {metric} {kind}")

    for name, value in sorted(snapshot["counters"].items()):
        metric = metric_name(name, "_total")
        _head(metric, "counter", name)
        lines.append(f"{metric} {_format_value(float(value))}")
    for name, value in sorted(snapshot["gauges"].items()):
        metric = metric_name(name)
        _head(metric, "gauge", name)
        lines.append(f"{metric} {_format_value(float(value))}")
    for name, timing in sorted(snapshot["timings"].items()):
        metric = metric_name(name)
        _head(metric, "histogram", name)
        cumulative = 0
        for bound, count in zip(_metrics.BUCKET_BOUNDS, timing["buckets"]):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{_format_bound(bound)}"}} {cumulative}'
            )
        lines.append(f'{metric}_bucket{{le="+Inf"}} {timing["count"]}')
        lines.append(
            f"{metric}_sum {_format_value(float(timing['total_seconds']))}"
        )
        lines.append(f"{metric}_count {timing['count']}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(
    path, registry: Optional[_metrics.MetricsRegistry] = None
) -> str:
    """Write the exposition document to ``path``; returns the text."""
    document = prometheus_document(registry)
    with open(path, "w") as handle:
        handle.write(document)
    return document


# -- parsing + validation -------------------------------------------------------


def parse_prometheus(text: str) -> Dict[str, float]:
    """Samples from an exposition document: ``{'name{labels}': value}``.

    A deliberately small parser — enough to round-trip what this module
    writes and to let tests (and the CI gate) assert on series without a
    prometheus client dependency. Malformed sample lines raise.
    """
    samples: Dict[str, float] = {}
    for line_number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(
                f"line {line_number}: not a sample line: {raw!r}"
            )
        key = match.group("name") + (match.group("labels") or "")
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {line_number}: bad sample value: {raw!r}"
            ) from exc
        samples[key] = value
    return samples


def validate_prometheus(text: str) -> List[str]:
    """Structural problems in an exposition document ([] = valid).

    Beyond parsing, audits every histogram: ``_bucket`` series must be
    cumulative (non-decreasing in ``le`` order), must end in an
    ``le="+Inf"`` bucket equal to ``_count``, and ``_sum``/``_count``
    must both be present — the invariants ``histogram_quantile`` relies
    on.
    """
    try:
        samples = parse_prometheus(text)
    except ValueError as exc:
        return [str(exc)]
    problems: List[str] = []
    # Label-normalized index: series looked up by (name, sorted labels)
    # so a labeled histogram's _count/_sum resolve regardless of the
    # label order the document happened to write.
    indexed: Dict[tuple, float] = {}
    histograms: Dict[tuple, List] = {}
    for key, value in samples.items():
        name, labels = parse_sample_key(key)
        indexed[(name, tuple(sorted(labels.items())))] = value
        if name.endswith("_bucket") and "le" in labels:
            le = labels.pop("le")
            bound = float("inf") if le == "+Inf" else float(le)
            series = (
                name[: -len("_bucket")],
                tuple(sorted(labels.items())),
            )
            histograms.setdefault(series, []).append((bound, value))
    for (base, labels), buckets in sorted(histograms.items()):
        shown = base + (
            "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"
            if labels
            else ""
        )
        buckets.sort(key=lambda pair: pair[0])
        previous = 0.0
        for bound, value in buckets:
            if value < previous:
                problems.append(
                    f"{shown}: bucket le={bound:g} not cumulative "
                    f"({value:g} < {previous:g})"
                )
            previous = value
        if buckets[-1][0] != float("inf"):
            problems.append(f"{shown}: no le=\"+Inf\" bucket")
        count = indexed.get((f"{base}_count", labels))
        if count is None:
            problems.append(f"{shown}: missing _count series")
        elif buckets[-1][0] == float("inf") and buckets[-1][1] != count:
            problems.append(
                f"{shown}: +Inf bucket {buckets[-1][1]:g} != _count {count:g}"
            )
        if (f"{base}_sum", labels) not in indexed:
            problems.append(f"{shown}: missing _sum series")
    return problems
