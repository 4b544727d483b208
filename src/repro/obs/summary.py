"""Trace analysis: per-name aggregates, self-time ranking, phase tables.

Post-processing for span lists produced by :mod:`repro.obs.trace` /
read back by :mod:`repro.obs.export`.  The aggregation functions are
pure and dependency-free; only the rendering helpers import
:mod:`repro.eval.report` (lazily, to keep ``repro.obs`` importable
before the rest of the package).

*Self time* is a span's duration minus the summed durations of its
direct children — the usual profiler notion, so a fat parent span
("campaign.run") does not drown the phases nested inside it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

__all__ = [
    "PHASE_NAMES",
    "aggregate_spans",
    "campaign_phases",
    "coverage",
    "phase_stats",
    "render_summary",
    "summary_rows",
]

#: Span names that constitute the campaign's per-phase breakdown, in
#: display order, mapped to the short labels ``campaign_stats_panel``
#: prints.  Everything here is batch-granular — nothing fires per
#: event or per trace.
PHASE_NAMES = {
    "batch.simulate": "simulate",
    "batch.noise": "noise",
    "batch.accumulate": "accumulate",
    "transport.pack": "pack",
    "transport.unpack": "unpack",
    "campaign.await": "await",
    "campaign.merge": "merge",
    "campaign.checkpoint": "checkpoint",
    "campaign.pool_teardown": "teardown",
}


def aggregate_spans(spans: Iterable[dict]) -> Dict[str, Dict[str, float]]:
    """Per-name totals: count, total/self nanoseconds, min/max."""
    spans = list(spans)
    child_time: Dict[str, int] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0) + span.get(
                "dur_ns", 0
            )
    agg: Dict[str, Dict[str, float]] = {}
    for span in spans:
        name = span["name"]
        dur = span.get("dur_ns", 0)
        own = max(0, dur - child_time.get(span.get("span_id"), 0))
        entry = agg.get(name)
        if entry is None:
            agg[name] = {
                "count": 1,
                "total_ns": dur,
                "self_ns": own,
                "min_ns": dur,
                "max_ns": dur,
            }
        else:
            entry["count"] += 1
            entry["total_ns"] += dur
            entry["self_ns"] += own
            entry["min_ns"] = min(entry["min_ns"], dur)
            entry["max_ns"] = max(entry["max_ns"], dur)
    return agg


def summary_rows(spans: Iterable[dict]) -> List[dict]:
    """Aggregates as rows sorted by self time, descending."""
    agg = aggregate_spans(spans)
    rows = [{"name": name, **entry} for name, entry in agg.items()]
    rows.sort(key=lambda r: (-r["self_ns"], r["name"]))
    return rows


def render_summary(spans: Iterable[dict], top: Optional[int] = None) -> str:
    """Text table of top spans by self-time (via ``eval.report``)."""
    from ..eval.report import render_table  # lazy: avoid import cycle

    rows = summary_rows(spans)
    if top is not None:
        rows = rows[:top]
    table_rows = [
        (
            r["name"],
            r["count"],
            f"{r['self_ns'] / 1e6:.3f}",
            f"{r['total_ns'] / 1e6:.3f}",
            f"{r['min_ns'] / 1e6:.3f}",
            f"{r['max_ns'] / 1e6:.3f}",
        )
        for r in rows
    ]
    return render_table(
        ("span", "count", "self ms", "total ms", "min ms", "max ms"),
        table_rows,
    )


def phase_stats(
    spans: Iterable[dict], names: Optional[Dict[str, str]] = None
) -> Dict[str, Dict[str, float]]:
    """Per-phase histogram table keyed by display label.

    ``names`` maps span name -> display label (default
    :data:`PHASE_NAMES`).  Values carry ``count`` and seconds
    (``total_s``/``min_s``/``max_s``) — the shape
    ``CampaignStats.phases`` stores and ``campaign_stats_panel``
    renders.
    """
    if names is None:
        names = PHASE_NAMES
    agg = aggregate_spans(s for s in spans if s["name"] in names)
    out: Dict[str, Dict[str, float]] = {}
    for span_name, label in names.items():
        entry = agg.get(span_name)
        if entry is None:
            continue
        out[label] = {
            "count": int(entry["count"]),
            "total_s": entry["total_ns"] / 1e9,
            "min_s": entry["min_ns"] / 1e9,
            "max_s": entry["max_ns"] / 1e9,
        }
    return out


# Alias with the campaign-facing name used by the runners.
campaign_phases = phase_stats


def coverage(spans: Iterable[dict], root_name: str = "campaign.run") -> float:
    """Fraction of the root span's wall-clock covered by its children.

    Finds the longest span named ``root_name`` and sums the durations
    of its *direct* children (worker batch spans root themselves under
    the campaign span via the propagated trace context, so they
    count).  Children of one root running concurrently on several
    workers can sum past 1.0; the value is clamped.  Returns 0.0 when
    no root span exists.
    """
    spans = list(spans)
    roots = [s for s in spans if s["name"] == root_name]
    if not roots:
        return 0.0
    root = max(roots, key=lambda s: s.get("dur_ns", 0))
    total = root.get("dur_ns", 0)
    if total <= 0:
        return 0.0
    covered = sum(
        s.get("dur_ns", 0)
        for s in spans
        if s.get("parent_id") == root["span_id"]
    )
    return min(1.0, covered / total)
