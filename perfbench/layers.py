"""Layer instrumentation for the traced benchmark run.

The benchmark times the program from outside: :func:`install` wraps the
public entry point of each layer so every call emits a span through the
public :func:`repro.obs.trace.trace`.  Spans opened in supervised pool
workers therefore ride back to the parent on ``BatchRecord.spans``, like
the program's own spans.  :func:`uninstall` restores the originals, so
untraced runs call the program directly.

Two entry points are called hundreds of thousands of times per batch
(``PackedToggleAccumulator.add`` and ``PowerRecorder.record_wire``).  A
span per call would cost more than the call and overflow the span ring,
so their wrappers only add up calls and nanoseconds.  The sum becomes
one aggregate span (``attrs.calls`` = call count) under the enclosing
span when that span opens a child or closes, so self times still add up.

:func:`run_metrics` turns the spans of one traced run into the per-layer
metrics.  A span's self time is its duration minus the part of it that
its child spans cover (the union of their intervals, so parallel worker
spans are not counted twice).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.obs import current_span_id, get_tracer, ingest_spans, trace, tracing_enabled

ROOT_SPAN = "bench.run"

#: aggregate-span name -> [calls, nanoseconds, first call start]
_pending: Dict[str, list] = {}
_agg_ids = itertools.count(1)
_installed: List[tuple] = []


def _flush(parent: Optional[str]) -> None:
    """Turn the pending hot-call sums into aggregate spans under ``parent``."""
    if not _pending:
        return
    tracer = get_tracer()
    if tracer is None:
        _pending.clear()
        return
    pid = os.getpid()
    spans = [
        {
            "name": name,
            "t_start_ns": t0,
            "dur_ns": ns,
            "pid": pid,
            "tid": threading.get_ident(),
            "span_id": f"{pid:x}.agg{next(_agg_ids)}",
            "parent_id": parent,
            "trace_id": tracer.trace_id,
            "attrs": {"calls": calls, "aggregate": True},
        }
        for name, (calls, ns, t0) in _pending.items()
    ]
    _pending.clear()
    ingest_spans(spans)


def _spanned(fn: Callable, name: str, before=None, after=None) -> Callable:
    """One span per call; ``after(args, before(args))`` adds span attrs."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracing_enabled():
            return fn(*args, **kwargs)
        _flush(current_span_id())
        state = before(args) if before is not None else None
        span = trace(name)
        with span:
            try:
                out = fn(*args, **kwargs)
            finally:
                _flush(current_span_id())
            if after is not None:
                span.attrs.update(after(args, state))
        return out

    return wrapper


def _summed(fn: Callable, name: str) -> Callable:
    """Add the call to the pending aggregate of ``name`` (no span)."""
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracing_enabled():
            return fn(*args, **kwargs)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            entry = _pending.get(name)
            if entry is None:
                _pending[name] = [1, dt, t0]
            else:
                entry[0] += 1
                entry[1] += dt

    return wrapper


def _settle_before(args):
    return args[0].events_processed


def _settle_after(args, before):
    sim = args[0]
    return {
        "gate_evals": int(sim.events_processed - before),
        "lanes": int(sim.values.shape[1]),
    }


def _update_after(args, _):
    traces = args[1]
    return {"traces": int(traces.shape[0]), "samples": int(traces.shape[1])}


def _entry_points():
    """``(owner, attribute, span name, wrapper factory)`` per entry point."""
    import repro.compile as compile_pkg
    from repro.des import engines
    from repro.leakage import tvla
    from repro.sim import clocking, compiled, power, vectorsim

    span = _spanned
    return [
        (engines.MaskedDESNetlistEngine, "__init__", "MaskedDESNetlistEngine.build", span),
        (engines.MaskedDESNetlistEngine, "run_batch", "MaskedDESNetlistEngine.run_batch", span),
        (engines.DESTraceSource, "acquire", "DESTraceSource.acquire", span),
        (clocking.ClockedHarness, "step", "ClockedHarness.step", span),
        (
            vectorsim.VectorSimulator, "settle", "VectorSimulator.settle",
            functools.partial(span, before=_settle_before, after=_settle_after),
        ),
        # settle calls replay through the name it imported
        (vectorsim, "replay", "compiled.replay", span),
        (compiled, "compile_schedule", "compiled.compile_schedule", span),
        (power.PackedToggleAccumulator, "add", "PackedToggleAccumulator.add", _summed),
        (power.PowerRecorder, "record_wire", "PowerRecorder.record_wire", _summed),
        (
            tvla.TTestAccumulator, "update", "TTestAccumulator.update",
            functools.partial(span, after=_update_after),
        ),
        (tvla.TTestAccumulator, "merge", "TTestAccumulator.merge", span),
        (tvla.TTestAccumulator, "t_stats", "TTestAccumulator.t_stats", span),
        (compile_pkg, "compile_spec", "compile_spec", span),
        # CompileResult.certify calls certify_netlist through this name
        (compile_pkg, "certify_netlist", "certify_netlist", span),
    ]


def install() -> None:
    """Wrap every entry point (idempotent)."""
    if _installed:
        return
    for owner, attr, name, factory in _entry_points():
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, factory(original, name))
        _installed.append((owner, attr, original))


def uninstall() -> None:
    """Restore the original entry points."""
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# spans -> per-layer metrics
# ----------------------------------------------------------------------
def self_times(spans: List[dict]) -> Dict[str, int]:
    """span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s.get("parent_id")].append(s)
    out = {}
    for s in spans:
        lo = s["t_start_ns"]
        hi = lo + s["dur_ns"]
        covered = 0
        end = lo
        for c in sorted(children.get(s["span_id"], ()), key=lambda c: c["t_start_ns"]):
            a = max(end, c["t_start_ns"])
            b = min(hi, c["t_start_ns"] + c["dur_ns"])
            if b > a:
                covered += b - a
                end = b
        out[s["span_id"]] = s["dur_ns"] - covered
    return out


def by_name(spans: List[dict]) -> Dict[str, dict]:
    """name -> {count (calls), total_s, self_s, spans}."""
    own = self_times(spans)
    agg: Dict[str, dict] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0, "spans": []}
    )
    for s in spans:
        entry = agg[s["name"]]
        entry["count"] += int(s["attrs"].get("calls", 1))
        entry["total_s"] += s["dur_ns"] / 1e9
        entry["self_s"] += own[s["span_id"]] / 1e9
        entry["spans"].append(s)
    return agg


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def setup_metrics(spans: List[dict]) -> Dict[str, float]:
    """Metrics of the set-up phase (engine build, schedule compiles)."""
    agg = by_name(spans)
    return {
        "des.build_s": agg["MaskedDESNetlistEngine.build"]["total_s"],
        "sim.schedule_compile_s": agg["compiled.compile_schedule"]["total_s"],
    }


def run_metrics(spans: List[dict], n_workers: int) -> Dict[str, float]:
    """Per-layer metrics of one traced run (spans of that run only)."""
    agg = by_name(spans)

    def self_s(name):
        return agg[name]["self_s"]

    settles = agg["VectorSimulator.settle"]["spans"]
    gate_evals = sum(s["attrs"].get("gate_evals", 0) for s in settles)
    gate_lanes = sum(
        s["attrs"].get("gate_evals", 0) * s["attrs"].get("lanes", 0) for s in settles
    )
    updates = agg["TTestAccumulator.update"]["spans"]
    trace_samples = sum(
        s["attrs"].get("traces", 0) * s["attrs"].get("samples", 0) for s in updates
    )
    update_ns = agg["TTestAccumulator.update"]["total_s"] * 1e9
    replay_s = self_s("compiled.replay")
    roots = agg[ROOT_SPAN]["spans"]
    wall_s = sum(s["dur_ns"] for s in roots) / 1e9
    campaign_s = agg["campaign.run"]["total_s"]
    batch_durs = [s["dur_ns"] / 1e9 for s in agg["campaign.batch"]["spans"]]
    return {
        "des.run_batch_s": agg["MaskedDESNetlistEngine.run_batch"]["total_s"],
        "clocking.step_calls": agg["ClockedHarness.step"]["count"],
        "clocking.step_self_s": self_s("ClockedHarness.step"),
        "sim.settle_calls": agg["VectorSimulator.settle"]["count"],
        "sim.settle_self_s": self_s("VectorSimulator.settle"),
        "sim.replay_s": replay_s,
        "sim.gate_evals": gate_evals,
        "sim.replay_ns_per_gate_lane": replay_s * 1e9 / gate_lanes if gate_lanes else 0.0,
        "power.acc_add_calls": agg["PackedToggleAccumulator.add"]["count"],
        "power.acc_add_s": agg["PackedToggleAccumulator.add"]["total_s"],
        "power.flush_s": self_s("power.flush"),
        "power.record_wire_calls": agg["PowerRecorder.record_wire"]["count"],
        "power.record_wire_s": agg["PowerRecorder.record_wire"]["total_s"],
        "batch.noise_s": self_s("batch.noise"),
        "tvla.update_s": agg["TTestAccumulator.update"]["total_s"],
        "tvla.update_ns_per_trace_sample": update_ns / trace_samples if trace_samples else 0.0,
        "tvla.merge_s": agg["TTestAccumulator.merge"]["total_s"],
        "tvla.t_stats_s": agg["TTestAccumulator.t_stats"]["total_s"],
        "campaign.batch_p50_s": _percentile(batch_durs, 0.50),
        "campaign.batch_p95_s": _percentile(batch_durs, 0.95),
        "campaign.pool_setup_s": self_s("campaign.pool_setup"),
        "campaign.await_s": self_s("campaign.await"),
        "campaign.worker_busy_frac": (
            sum(batch_durs) / (n_workers * campaign_s) if campaign_s else 0.0
        ),
        "transport.pack_s": self_s("transport.pack"),
        "transport.unpack_s": self_s("transport.unpack"),
        "campaign.checkpoint_s": self_s("campaign.checkpoint"),
        "compile.anf_s": self_s("compile.anf"),
        "compile.lower_s": self_s("compile.lower"),
        "compile.refresh_s": self_s("compile.refresh"),
        "compile.schedule_s": self_s("compile.schedule"),
        "compile.emit_s": self_s("compile.emit"),
        "certify.functional_s": self_s("certify.functional"),
        "certify.static_s": self_s("certify.static"),
        "certify.exact_s": self_s("certify.exact"),
        "trace.wall_s": wall_s,
        "trace.coverage": 1.0 - self_s(ROOT_SPAN) / wall_s if wall_s else 0.0,
    }


def schedule_compiles(diff: dict) -> int:
    """Schedule compiles in a snapshot diff, campaign warm-ups included."""
    counters = diff.get("counters", {})
    return counters.get("schedule_cache.compiles", 0) + counters.get(
        "schedule_cache.warmup_compiles", 0
    )


def counter_metrics(diff: dict) -> Dict[str, float]:
    """Program counters (a ``repro.obs.metrics`` snapshot diff) of one run."""
    counters = diff.get("counters", {})
    gauges = diff.get("gauges", {})

    def c(name):
        return counters.get(name, 0)

    return {
        "sim.schedule_compiles_run": schedule_compiles(diff),
        "sim.schedule_hits": c("schedule_cache.hits") + c("schedule_cache.warmup_hits"),
        "power.max_planes": gauges.get("packed_accumulator.max_planes", 0),
        "power.overflow_bins": c("packed_accumulator.overflow_bins"),
        "power.clamped_events": c("power.clamped_events"),
        "transport.pipe_bytes": c("transport.pipe_bytes"),
        "campaign.checkpoints": c("supervisor.checkpoints_written"),
    }

