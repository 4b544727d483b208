"""Simulator throughput benchmark — ``BENCH_simulator.json`` schema v6.

Four head-to-head comparisons over the simulation substrate:

* **settle** — compiled schedule replay vs the interpreted event loop
  on a campaign-shaped gadget-bank workload (both engines must agree
  bitwise; only the time differs);
* **settle_packed** — boolean compiled replay vs the bit-packed
  ``uint64``-lane engine (:mod:`repro.sim.bitpack`) on the same
  workload; power samples must stay bitwise equal, the ~64x byte
  reduction per logic op is where the speedup comes from;
* **campaign** — serial vs parallel :func:`repro.leakage.run_campaign`
  over the same source and config (bitwise-equal t-statistics are a
  hard requirement); *skipped entirely* on single-CPU hosts, where the
  parallel leg can only measure pool overhead;
* **campaign_packed** — the same source run serially with
  ``pack_traces=False`` vs ``pack_traces=True`` on a lane-aligned
  config (bitwise-equal t-statistics required; end-to-end engine
  speedup is the number; both legs record power through one sink call
  per settle).

Schema history
--------------
``bench_simulator/v1`` recorded a single ``speedup`` per comparison
and nothing about the host — which let a 4-workers-on-1-core run
publish a 0.92x "speedup" with no way to see why.  ``v2`` added:

* ``parallel_comparison_valid`` — ``False`` when the host has fewer
  than two CPUs;
* ``n_workers`` vs ``cpu_count`` next to every campaign timing;
* the full :meth:`repro.leakage.stats.CampaignStats.as_dict` of both
  campaign runs (``serial_stats`` / ``parallel_stats``).

``v3`` adds the two packed-engine sections (``settle_packed``,
``campaign_packed``, each recording the popcount backend in use — see
:data:`repro.sim.bitpack.HAVE_BITWISE_COUNT`) and replaces the v2
single-CPU behaviour: instead of burning a minute producing an invalid
parallel comparison flagged ``parallel_comparison_valid=false``, the
``campaign`` section is now ``{"skipped_reason": "cpu_count<2"}`` and
the parallel leg never runs.

``v4`` marks the packed-domain power accumulator (recorders consume
toggle masks as counter bit-planes instead of per-event unpacked
booleans — :class:`repro.sim.power.PackedToggleAccumulator`).  The
``campaign_packed`` section now embeds ``counter_planes`` — the packed
leg's accumulator telemetry (instances, flushes, deepest per-bin
counter in bits, bins past the 2^24 float32-exactness bound) — and
runs on its own lane-aligned config (``n_traces`` and ``batch_size``
multiples of 64): the v3 section reused the parallel campaign's
125-trace batches, two ragged lanes per batch, which is exactly the
geometry packing cannot win (the seed's recorded 0.98x).

``v5`` adds the ``obs`` section — traced vs untraced packed campaign
(:mod:`repro.obs`), bitwise-equal t-statistics required, publishing
the span-tracing overhead ratio — and gives every campaign leg a
descriptive label (``bench.campaign.serial``,
``bench.campaign_packed.boolean``, ...) instead of the empty/shared
labels the v4 stats embedded.

``v6`` follows the levelised replay: every settle hands its toggles to
one recording sink in one call, so ``campaign_packed`` reports the
sink's counters (``sink``: ``calls`` — one per recorded settle — and
``rows`` binned) in place of the deleted ``counter_planes``.

The pytest benches under ``benchmarks/`` call the same comparison
functions with CI budgets and write the same JSON; ``python -m repro
bench [--quick]`` runs them standalone.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from dataclasses import replace as dc_replace

from ..core.gadgets import build_secand2
from ..core.shares import share
from ..leakage.acquisition import CampaignConfig, run_campaign
from ..sim import bitpack
from ..sim.power import (
    PowerRecorder,
    packed_accumulator_counters,
    reset_packed_accumulator_counters,
)
from ..sim.vectorsim import VectorSimulator

__all__ = [
    "SCHEMA",
    "median_time",
    "settle_comparison",
    "settle_packed_comparison",
    "campaign_comparison",
    "campaign_packed_comparison",
    "obs_overhead_comparison",
    "assemble_payload",
    "write_json",
    "BenchResult",
    "run",
]

SCHEMA = "bench_simulator/v6"


def _cpu_count() -> int:
    """Host CPU count (module-level so tests can monkeypatch it)."""
    return os.cpu_count() or 1


def _popcount_backend() -> str:
    """Which popcount implementation :mod:`repro.sim.bitpack` is using."""
    return "bitwise_count" if bitpack.HAVE_BITWISE_COUNT else "lut8"

#: Default output location (repo root when run from a checkout; the
#: CLI and the pytest bench both write here and CI uploads it).
DEFAULT_JSON = Path(__file__).resolve().parents[3] / "BENCH_simulator.json"


def median_time(fn: Callable, reps: int = 15, prep: Optional[Callable] = None) -> float:
    """Median wall time of ``fn`` over ``reps`` repetitions.

    ``prep`` runs untimed before each repetition (state reset, so every
    ``fn`` does real work); the first ``fn`` call is an untimed warmup
    and compiles schedules where applicable.
    """
    if prep is not None:
        prep()
    fn()
    times = []
    for _ in range(reps):
        if prep is not None:
            prep()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def alternating_blocks(
    run_a: Callable,
    prep_a: Callable,
    run_b: Callable,
    prep_b: Callable,
    reps: int,
    rounds: int = 3,
) -> "tuple[float, float, float]":
    """Time two workloads in alternating per-leg blocks.

    Runs ``reps`` timed repetitions of leg A, then of leg B, repeated
    ``rounds`` times (plus one untimed warmup of each leg, which
    compiles schedules where applicable).  Per-leg blocks keep each
    leg's working set cache-warm — a campaign runs one engine
    back-to-back, never alternating — while alternating the blocks
    cancels host-speed drift (CPU-frequency scaling, steal time on
    shared runners) that would skew a single A-block-then-B-block
    measurement.

    Returns ``(t_a, t_b, ratio)``: the median block-median time of
    each leg and the median per-round ratio ``t_a / t_b``.
    """
    prep_a()
    run_a()
    prep_b()
    run_b()

    def block(run, prep):
        times = []
        for _ in range(reps):
            prep()
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    t_as, t_bs, ratios = [], [], []
    for _ in range(rounds):
        ta = block(run_a, prep_a)
        tb = block(run_b, prep_b)
        t_as.append(ta)
        t_bs.append(tb)
        ratios.append(ta / tb)
    return (
        statistics.median(t_as),
        statistics.median(t_bs),
        statistics.median(ratios),
    )


def _settle_workload(n_instances: int, n_traces: int):
    """The shared secAND2-bank settle workload of both settle sections.

    Returns ``make``: ``make(compiled, packed)`` builds a fresh
    ``(sim, power, prep, run_once)`` quadruple over the same circuit,
    events and weights; ``prep`` resets the wire state and starts a new
    recorder, and ``power()`` reads the latest run's power matrix.
    """
    rng = np.random.default_rng(0)
    c = build_secand2(n_instances=n_instances)
    n = n_traces
    x0, x1 = share(rng.integers(0, 2, n).astype(bool), rng)
    y0, y1 = share(rng.integers(0, 2, n).astype(bool), rng)
    events = [
        (0, c.wire("y0"), y0),
        (1000, c.wire("x0"), x0),
        (1000, c.wire("x1"), x1),
        (2000, c.wire("y1"), y1),
    ]
    inputs = {c.wire(k): False for k in ("x0", "x1", "y0", "y1")}

    def make(compiled: bool, packed: bool = False):
        sim = VectorSimulator(
            c, n, compile_schedules=compiled, pack_traces=packed
        )
        current = {}

        def prep():
            sim.reset_state(False)
            sim.evaluate_combinational(inputs)
            current["rec"] = PowerRecorder(
                n, 5000, bin_ps=250, weights=sim.weights
            )

        def run_once():
            sim.settle(events, recorder=current["rec"])

        return sim, lambda: current["rec"].power, prep, run_once

    return make


def settle_comparison(
    n_instances: int = 64, n_traces: int = 1024, reps: int = 15
) -> Dict[str, object]:
    """Compiled replay vs interpreted settle on a secAND2 bank.

    Returns the ``settle`` section; raises AssertionError if the two
    engines disagree on values or power (they must be bitwise equal).
    Timed via :func:`alternating_blocks` so host-speed drift between
    the legs cancels.
    """
    make = _settle_workload(n_instances, n_traces)
    sim_i, power_i, prep_i, run_i = make(False)
    sim_c, power_c, prep_c, run_c = make(True)
    t_interp, t_compiled, speedup = alternating_blocks(
        run_i, prep_i, run_c, prep_c, reps
    )
    prep_i()
    run_i()
    prep_c()
    run_c()
    assert np.array_equal(sim_i.values, sim_c.values)
    assert np.array_equal(power_i(), power_c())
    return {
        "circuit": "secAND2 bank",
        "n_instances": n_instances,
        "n_traces": n_traces,
        "interpreted_ms": t_interp * 1e3,
        "compiled_ms": t_compiled * 1e3,
        "speedup": speedup,
    }


def settle_packed_comparison(
    n_instances: int = 64, n_traces: int = 16384, reps: int = 9
) -> Dict[str, object]:
    """Boolean vs bit-packed compiled replay on a secAND2 bank.

    Both engines run the compiled path with a :class:`PowerRecorder`,
    so the measured difference is purely the ``uint64``-lane state
    representation (the power sink takes either layout).
    Raises AssertionError unless final wire values and power samples
    are bitwise equal.  The defaults are sized so the byte-traffic
    advantage dominates per-call numpy overhead (packing small batches
    is not profitable — that is why ``"auto"`` exists).  Timed via
    :func:`alternating_blocks` so host-speed drift between the legs
    cancels.
    """
    make = _settle_workload(n_instances, n_traces)
    sim_b, power_b, prep_b, run_b = make(True, packed=False)
    sim_p, power_p, prep_p, run_p = make(True, packed=True)
    t_bool, t_packed, speedup = alternating_blocks(
        run_b, prep_b, run_p, prep_p, reps
    )
    prep_b()
    run_b()
    prep_p()
    run_p()
    for w in range(sim_b.values.shape[0]):
        assert np.array_equal(sim_b.wire_values(w), sim_p.wire_values(w))
    assert np.array_equal(power_b(), power_p())
    return {
        "circuit": "secAND2 bank",
        "n_instances": n_instances,
        "n_traces": n_traces,
        "n_lanes": sim_p.n_lanes,
        "popcount": _popcount_backend(),
        "boolean_ms": t_bool * 1e3,
        "packed_ms": t_packed * 1e3,
        "speedup": speedup,
    }


def campaign_comparison(
    source,
    config: CampaignConfig,
    n_workers: "int | str" = "auto",
    source_label: str = "",
) -> Dict[str, object]:
    """Serial vs parallel campaign over one source/config.

    Returns the ``campaign`` section, with the serial and parallel
    :class:`~repro.leakage.stats.CampaignStats` embedded; raises
    AssertionError if the parallel t-statistics are not bitwise equal
    to the serial ones.  Callers must skip this comparison on
    single-CPU hosts (see :func:`run`): there the parallel leg can only
    measure pool overhead, never parallelism.

    Each leg gets a descriptive stats label
    (``<config.label>.serial`` / ``.parallel``) so the embedded
    ``CampaignStats`` say which leg they describe.
    """
    base = config.label or "bench.campaign"
    serial = run_campaign(
        source, dc_replace(config, label=f"{base}.serial"), n_workers=1
    )
    parallel = run_campaign(
        source,
        dc_replace(config, label=f"{base}.parallel"),
        n_workers=n_workers,
    )
    bitwise = bool(
        np.array_equal(serial.t1, parallel.t1)
        and np.array_equal(serial.t2, parallel.t2)
        and np.array_equal(serial.t3, parallel.t3)
    )
    assert bitwise, "parallel campaign diverged bitwise from serial"
    t_serial = serial.stats.wall_seconds
    t_parallel = parallel.stats.wall_seconds
    return {
        "source": source_label or type(source).__name__,
        "n_traces": config.n_traces,
        "batch_size": config.batch_size,
        "n_workers": parallel.stats.n_workers,
        "requested_workers": n_workers,
        "serial_s": t_serial,
        "parallel_s": t_parallel,
        "speedup": t_serial / t_parallel if t_parallel > 0 else 0.0,
        "bitwise_equal": bitwise,
        "serial_stats": serial.stats.as_dict(),
        "parallel_stats": parallel.stats.as_dict(),
    }


def campaign_packed_comparison(
    source,
    config: CampaignConfig,
    source_label: str = "",
    reps: int = 1,
    rounds: int = 3,
) -> Dict[str, object]:
    """Boolean vs bit-packed engine over one serial campaign.

    Runs the identical campaign with ``pack_traces=False`` and
    ``True`` and demands bitwise-equal t-statistics at every order.
    Serial on purpose: the number isolates the engine, not the pool.
    Timed via :func:`alternating_blocks` (``reps`` campaigns per leg
    block, ``rounds`` alternations, plus one untimed warm-up of each
    leg) — single-shot campaign timing on a shared 1-CPU runner
    drifts by 10-15%, which is exactly the margin the >= 1.2x gate
    needs; the published ``speedup`` is the median per-round ratio, so
    host-speed drift between the legs cancels.  The section embeds the
    recording sink's counters over both legs and every repetition (the
    process-wide counters are reset up front and read once at the end).
    """
    reset_packed_accumulator_counters()
    base = config.label or "bench.campaign_packed"
    cfg_bool = dc_replace(config, pack_traces=False, label=f"{base}.boolean")
    cfg_packed = dc_replace(config, pack_traces=True, label=f"{base}.packed")
    latest: Dict[str, object] = {}

    def run_bool():
        latest["boolean"] = run_campaign(source, cfg_bool, n_workers=1)

    def run_pack():
        latest["packed"] = run_campaign(source, cfg_packed, n_workers=1)

    def _noop():
        pass

    t_bool, t_packed, ratio = alternating_blocks(
        run_bool, _noop, run_pack, _noop, reps, rounds
    )
    sink = packed_accumulator_counters()
    boolean = latest["boolean"]
    packed = latest["packed"]
    bitwise = bool(
        np.array_equal(boolean.t1, packed.t1)
        and np.array_equal(boolean.t2, packed.t2)
        and np.array_equal(boolean.t3, packed.t3)
    )
    assert bitwise, "packed campaign diverged bitwise from boolean"
    return {
        "source": source_label or type(source).__name__,
        "n_traces": config.n_traces,
        "batch_size": config.batch_size,
        "popcount": _popcount_backend(),
        "boolean_s": t_bool,
        "packed_s": t_packed,
        "speedup": ratio,
        "bitwise_equal": bitwise,
        "sink": sink,
        "boolean_stats": boolean.stats.as_dict(),
        "packed_stats": packed.stats.as_dict(),
    }


def obs_overhead_comparison(
    source,
    config: CampaignConfig,
    source_label: str = "",
    reps: int = 1,
    rounds: int = 3,
) -> Dict[str, object]:
    """Untraced vs traced serial campaign over one source/config.

    Runs the identical campaign with :mod:`repro.obs` span tracing off
    and on (a fresh tracer per repetition so the ring never wraps) and
    demands bitwise-equal t-statistics — tracing must *observe* the
    campaign, never perturb it.  Timed via :func:`alternating_blocks`
    like the other campaign sections; the published ``overhead`` is
    the median per-round ``traced / untraced`` wall-time ratio minus
    one.  The v5 gate is <= 5%: spans fire per batch/phase, never per
    event, so the disabled-path and enabled-path costs are both far
    below the simulation work they wrap.
    """
    from ..obs.summary import coverage
    from ..obs.trace import disable_tracing, enable_tracing, get_tracer

    base = config.label or "bench.obs"
    cfg_off = dc_replace(config, label=f"{base}.untraced")
    cfg_on = dc_replace(config, label=f"{base}.traced")
    latest: Dict[str, object] = {}
    observed = {"spans": []}

    def prep_off():
        disable_tracing()

    def run_off():
        latest["untraced"] = run_campaign(source, cfg_off, n_workers=1)

    def prep_on():
        enable_tracing()

    def run_on():
        latest["traced"] = run_campaign(source, cfg_on, n_workers=1)
        tracer = get_tracer()
        if tracer is not None:
            observed["spans"] = tracer.drain()

    try:
        t_on, t_off, ratio = alternating_blocks(
            run_on, prep_on, run_off, prep_off, reps, rounds
        )
    finally:
        disable_tracing()
    untraced = latest["untraced"]
    traced = latest["traced"]
    bitwise = bool(
        np.array_equal(untraced.t1, traced.t1)
        and np.array_equal(untraced.t2, traced.t2)
        and np.array_equal(untraced.t3, traced.t3)
    )
    assert bitwise, "traced campaign diverged bitwise from untraced"
    spans = observed["spans"]
    assert spans, "traced campaign recorded no spans"
    return {
        "source": source_label or type(source).__name__,
        "n_traces": config.n_traces,
        "batch_size": config.batch_size,
        "untraced_s": t_off,
        "traced_s": t_on,
        "overhead": ratio - 1.0,
        "bitwise_equal": bitwise,
        "n_spans": len(spans),
        "coverage": coverage(spans),
        "traced_stats": traced.stats.as_dict(),
    }


def assemble_payload(**sections) -> Dict[str, object]:
    """Wrap comparison sections in the v6 envelope (host + validity)."""
    cpu = _cpu_count()
    return {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": cpu,
        "unix_time": time.time(),
        # Single-CPU hosts cannot produce a meaningful serial-vs-
        # parallel number; run() then skips the campaign section
        # (recording a skipped_reason) instead of timing pool overhead.
        "parallel_comparison_valid": cpu >= 2,
        **sections,
    }


def write_json(payload: Dict[str, object], path: "Optional[Path]" = None) -> Path:
    out = Path(path) if path is not None else DEFAULT_JSON
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


@dataclass
class BenchResult:
    """``run()`` output: the JSON payload plus where it was written."""

    payload: Dict[str, object]
    json_path: Optional[Path]

    def render(self) -> str:
        p = self.payload
        lines = [
            f"bench_simulator {p['schema']}  "
            f"(python {p['python']}, numpy {p['numpy']}, "
            f"{p['cpu_count']} cpu)"
        ]
        s = p.get("settle")
        if s:
            lines.append(
                f"settle:   interpreted {s['interpreted_ms']:8.3f} ms   "
                f"compiled {s['compiled_ms']:8.3f} ms   "
                f"speedup {s['speedup']:.2f}x"
            )
        sp = p.get("settle_packed")
        if sp:
            lines.append(
                f"packed:   boolean {sp['boolean_ms']:10.3f} ms   "
                f"packed   {sp['packed_ms']:8.3f} ms   "
                f"speedup {sp['speedup']:.2f}x   "
                f"({sp['n_traces']} traces in {sp['n_lanes']} lanes, "
                f"popcount={sp['popcount']})"
            )
        c = p.get("campaign")
        if c:
            if "skipped_reason" in c:
                lines.append(
                    f"campaign: skipped ({c['skipped_reason']}) — a "
                    "serial-vs-parallel timing on this host would only "
                    "measure pool overhead"
                )
            else:
                lines.append(
                    f"campaign: serial {c['serial_s']:8.3f} s   "
                    f"parallel({c['n_workers']}) {c['parallel_s']:8.3f} s   "
                    f"speedup {c['speedup']:.2f}x   "
                    f"bitwise={c['bitwise_equal']}"
                )
                stats = c.get("parallel_stats") or {}
                if stats:
                    lines.append(
                        f"  parallel run: {stats['start_method']} start, "
                        f"transport={stats['transport']} "
                        f"({stats['pipe_bytes']:,} B through the pipe), "
                        f"warmup {stats['warmup_seconds']:.3f}s, "
                        f"schedules {stats['schedule_replays']} replayed / "
                        f"{stats['schedule_compiles']} compiled"
                    )
                    recovery = {
                        k: stats[k]
                        for k in (
                            "retries", "pool_rebuilds", "restarts",
                            "watchdog_kills", "checkpoint_restores",
                            "checkpoints_quarantined", "skipped_traces",
                            "scavenged_segments",
                        )
                        if stats.get(k)
                    }
                    if recovery:
                        lines.append(
                            "  recovery: "
                            + "  ".join(f"{k}={v}" for k, v in recovery.items())
                        )
        cp = p.get("campaign_packed")
        if cp:
            lines.append(
                f"campaign_packed: boolean {cp['boolean_s']:8.3f} s   "
                f"packed {cp['packed_s']:8.3f} s   "
                f"speedup {cp['speedup']:.2f}x   "
                f"bitwise={cp['bitwise_equal']}"
            )
            sink = cp.get("sink")
            if sink:
                lines.append(
                    f"  sink: {sink['calls']} calls, {sink['rows']} rows binned"
                )
        ob = p.get("obs")
        if ob:
            lines.append(
                f"obs:      untraced {ob['untraced_s']:8.3f} s   "
                f"traced {ob['traced_s']:8.3f} s   "
                f"overhead {ob['overhead'] * 100:+.1f}%   "
                f"bitwise={ob['bitwise_equal']}   "
                f"({ob['n_spans']} spans, "
                f"coverage {ob['coverage']:.0%})"
            )
        if self.json_path is not None:
            lines.append(f"wrote {self.json_path}")
        return "\n".join(lines)


def run(
    quick: bool = False,
    n_workers: "Optional[int | str]" = None,
    write: bool = True,
    json_path: "Optional[Path]" = None,
) -> BenchResult:
    """Run all comparisons and (by default) write the v6 JSON.

    ``quick`` shrinks the budgets to CI-smoke size and swaps the
    campaign workload from the masked-DES netlist engine to the
    8-instance secAND2 sequence source (seconds, not minutes).
    ``n_workers`` defaults to ``"auto"`` (match the host) so the
    recorded speedup is the best the box can do; pass an int to
    measure a specific topology.

    On a single-CPU host the serial-vs-parallel ``campaign`` section is
    skipped entirely — recorded as ``{"skipped_reason": "cpu_count<2",
    ...}`` — instead of spending a minute timing pool overhead that
    the old schema could only flag as invalid after the fact.  The
    packed-engine sections always run; they are in-process.
    """
    workers = "auto" if n_workers is None else n_workers
    if quick:
        settle = settle_comparison(n_instances=8, n_traces=256, reps=3)
        settle_packed = settle_packed_comparison(
            n_instances=16, n_traces=2048, reps=3
        )
        from ..core.sequences import INPUT_NAMES, SequenceSource

        source = SequenceSource(INPUT_NAMES, n_instances=8)
        cfg = CampaignConfig(
            n_traces=400, batch_size=100, noise_sigma=1.0, seed=0,
            label="bench.campaign",
        )
        cfg_packed = dc_replace(cfg, label="bench.campaign_packed")
        source_label = "SequenceSource (secAND2 bank, 8 instances)"
    else:
        settle = settle_comparison()
        settle_packed = settle_packed_comparison()
        from ..des.engines import DESTraceSource, MaskedDESNetlistEngine

        engine = MaskedDESNetlistEngine("ff")
        source = DESTraceSource(
            engine, 0x0123456789ABCDEF, 0x133457799BBCDFF1, prng_enabled=True
        )
        cfg = CampaignConfig(
            n_traces=500, batch_size=125, noise_sigma=1.0, seed=0,
            label="bench.campaign",
        )
        # The engine comparison gets a lane-aligned geometry: 125-trace
        # batches are two ragged uint64 lanes — per-batch fixed costs
        # dominate and packing structurally cannot win there (the v3
        # bench's 0.98x).  The parallel comparison above keeps the
        # multi-batch config so the pool has batches to shard.
        cfg_packed = CampaignConfig(
            n_traces=512, batch_size=512, noise_sigma=1.0, seed=0,
            label="bench.campaign_packed",
        )
        source_label = "DESTraceSource (masked DES netlist, ff variant)"
    if _cpu_count() < 2:
        campaign: Dict[str, object] = {
            "source": source_label,
            "skipped_reason": "cpu_count<2",
        }
    else:
        campaign = campaign_comparison(
            source, cfg, n_workers=workers, source_label=source_label
        )
    campaign_packed = campaign_packed_comparison(
        source, cfg_packed, source_label=source_label
    )
    obs = obs_overhead_comparison(
        source,
        dc_replace(cfg_packed, pack_traces=True, label="bench.obs"),
        source_label=source_label,
    )
    payload = assemble_payload(
        settle=settle,
        settle_packed=settle_packed,
        campaign=campaign,
        campaign_packed=campaign_packed,
        obs=obs,
    )
    path = write_json(payload, json_path) if write else None
    return BenchResult(payload=payload, json_path=path)
