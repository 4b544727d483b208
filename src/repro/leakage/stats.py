"""Campaign observability: where did the wall-clock time go?

A campaign's wall time alone cannot say *why* it was slow: four
workers on one core measure only pool overhead, and a bare speedup
hides that.  Every campaign runner assembles a :class:`CampaignStats`
and attaches it to the returned :class:`~repro.leakage.tvla.TvlaResult`,
recording

* the worker topology actually used (requested vs effective workers,
  the host's CPU count, the pool start method, oversubscription);
* per-batch wall time and the derived traces/second;
* the campaign's :mod:`repro.obs.metrics` counter diff, taken in the
  parent across the run after each worker batch's diff was merged in.
  Every event count is a property over it: shard-transport traffic,
  compile-vs-replay behaviour of the compiled-schedule cache, clamp
  events and the supervisor's recovery events.  Warm-ups move their
  cache lookups to ``schedule_cache.warmup_*``, so a warmed campaign
  shows ``schedule_compiles == 0``.

``as_dict()`` is JSON-ready; ``summary()`` renders the two-line
reading used by the ``repro.eval`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["BatchRecord", "CampaignStats"]


@dataclass
class BatchRecord:
    """Timing of one acquired batch."""

    index: int
    n_traces: int
    seconds: float
    #: Worker-side :mod:`repro.obs.metrics` snapshot diff of this batch
    #: (parallel runs only); consumed — merged into the parent registry
    #: and cleared — on receipt.  Serial batches leave it ``None``.
    metrics: Optional[Dict[str, object]] = None
    #: Worker-side span dicts of this batch (traced parallel runs
    #: only); consumed into the parent tracer on receipt.
    spans: Optional[List[dict]] = None


def _counted(metric: str) -> property:
    """A read-only stat: counter ``metric`` of the campaign's diff."""
    return property(lambda self: int(self.counters.get(metric, 0)))


@dataclass
class CampaignStats:
    """Aggregated observability of one campaign run."""

    label: str = ""
    n_traces: int = 0
    batch_size: int = 0
    requested_workers: "int | str" = 1
    n_workers: int = 1
    cpu_count: int = 1
    oversubscribed: bool = False
    start_method: str = "serial"  #: "serial" | "fork" | "spawn" | ...
    transport: str = "none"
    wall_seconds: float = 0.0
    warmup_seconds: float = 0.0
    quarantined_batches: List[int] = field(default_factory=list)
    #: traces not acquired because their batch was quarantined
    skipped_traces: int = 0
    batches: List[BatchRecord] = field(default_factory=list)
    #: Per-phase timing histograms (``phase -> {count, total_s, min_s,
    #: max_s}``), attached by the runners when the campaign ran with
    #: tracing enabled (see :func:`repro.obs.summary.campaign_phases`);
    #: empty for untraced runs.
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: The registry counters that moved across the run (``metric ->
    #: delta``; :attr:`repro.obs.metrics.MetricsSnapshot.counters` of
    #: the parent's diff), set when the campaign loop exits.
    counters: Dict[str, float] = field(default_factory=dict)

    #: Shard bytes through the pool's result pipe.
    pipe_bytes = _counted("transport.pipe_bytes")
    #: Schedule compiles during batch acquisition (warm-up excluded).
    schedule_compiles = _counted("schedule_cache.compiles")
    #: Schedule-cache hits during batch acquisition.
    schedule_replays = _counted("schedule_cache.hits")
    #: Recorder clamp events (see :class:`repro.sim.power.ClampedEventWarning`).
    clamped_events = _counted("power.clamped_events")
    #: Times the campaign resumed from disk (cumulative over resumes).
    restarts = _counted("supervisor.restarts")
    #: Pools killed by the watchdog (cumulative over resumes).
    watchdog_kills = _counted("supervisor.watchdog_kills")
    #: Pool teardowns after a failed batch.
    pool_rebuilds = _counted("supervisor.pool_rebuilds")
    #: Fallbacks to an older checkpoint generation.
    checkpoint_restores = _counted("supervisor.checkpoint_restores")
    #: Corrupt checkpoint files set aside.
    checkpoints_quarantined = _counted("supervisor.checkpoints_quarantined")
    #: Orphaned shm segments reclaimed.
    scavenged_segments = _counted("transport.scavenged_segments")

    # ------------------------------------------------------------------
    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def traces_per_second(self) -> float:
        """End-to-end campaign throughput (merged traces / wall time)."""
        done = sum(b.n_traces for b in self.batches)
        return done / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def batch_seconds(self) -> Dict[str, float]:
        """Min / median / max per-batch wall time."""
        times = sorted(b.seconds for b in self.batches)
        if not times:
            return {"min": 0.0, "median": 0.0, "max": 0.0}
        mid = len(times) // 2
        median = (
            times[mid]
            if len(times) % 2
            else 0.5 * (times[mid - 1] + times[mid])
        )
        return {"min": times[0], "median": median, "max": times[-1]}

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary (no per-batch list)."""
        return {
            "label": self.label,
            "n_traces": self.n_traces,
            "batch_size": self.batch_size,
            "n_batches": self.n_batches,
            "requested_workers": self.requested_workers,
            "n_workers": self.n_workers,
            "cpu_count": self.cpu_count,
            "oversubscribed": self.oversubscribed,
            "start_method": self.start_method,
            "transport": self.transport,
            "wall_seconds": self.wall_seconds,
            "warmup_seconds": self.warmup_seconds,
            "traces_per_second": self.traces_per_second,
            "pipe_bytes": self.pipe_bytes,
            "schedule_compiles": self.schedule_compiles,
            "schedule_replays": self.schedule_replays,
            "clamped_events": self.clamped_events,
            "pool_rebuilds": self.pool_rebuilds,
            "restarts": self.restarts,
            "watchdog_kills": self.watchdog_kills,
            "checkpoint_restores": self.checkpoint_restores,
            "checkpoints_quarantined": self.checkpoints_quarantined,
            "quarantined_batches": list(self.quarantined_batches),
            "skipped_traces": self.skipped_traces,
            "scavenged_segments": self.scavenged_segments,
            "batch_seconds": self.batch_seconds(),
            "phases": {k: dict(v) for k, v in self.phases.items()},
        }

    def robustness_events(self) -> Dict[str, int]:
        """Non-zero recovery/cleanup counters of this campaign run.

        Empty for an undisturbed campaign — the condition the summary
        uses to keep its two-line reading two lines.
        """
        events = {
            "restarts": self.restarts,
            "pool_rebuilds": self.pool_rebuilds,
            "watchdog_kills": self.watchdog_kills,
            "checkpoint_restores": self.checkpoint_restores,
            "checkpoints_quarantined": self.checkpoints_quarantined,
            "quarantined_batches": len(self.quarantined_batches),
            "skipped_traces": self.skipped_traces,
            "scavenged_segments": self.scavenged_segments,
        }
        return {k: v for k, v in events.items() if v}

    def summary(self) -> str:
        """Two-line human reading (three with recovery events) for reports."""
        bs = self.batch_seconds()
        over = " OVERSUBSCRIBED" if self.oversubscribed else ""
        lines = [
            f"campaign: {self.n_traces} traces in {self.wall_seconds:.2f}s "
            f"({self.traces_per_second:,.0f} traces/s)  "
            f"workers={self.n_workers}/{self.cpu_count}cpu"
            f"[{self.start_method}]{over}",
            f"  batches: {self.n_batches} x ~{self.batch_size}  "
            f"t/batch {bs['min']:.3f}/{bs['median']:.3f}/{bs['max']:.3f}s  "
            f"transport={self.transport} ({self.pipe_bytes:,} B)  "
            f"schedules: {self.schedule_replays} replayed, "
            f"{self.schedule_compiles} compiled",
        ]
        events = self.robustness_events()
        if events:
            lines.append(
                "  recovery: "
                + "  ".join(f"{k}={v}" for k, v in events.items())
            )
        return "\n".join(lines)
