"""Timing gates of the simulation substrate.

Five head-to-head comparisons, each with a relative speed bound and a
bitwise contract between its two legs:

* compiled replay vs interpreted ``settle``: >= 3x;
* bit-packed vs boolean compiled replay: >= 3x;
* packed vs boolean masked-DES campaign: >= 1.2x;
* 4-worker vs serial campaign: >= 1.5x, on hosts with >= 4 CPUs;
* traced vs untraced campaign: <= 5% overhead.

Both legs of a comparison run in this one process, timed in
alternating per-leg blocks so host-speed drift cancels, and each gate
reads the median per-round ratio.  Absolute throughput, its history
and the per-layer breakdown are measured by ``perfbench/`` (see
``BENCHMARK.json``), not here.

Run with ``PYTHONPATH=src:. python -m pytest
benchmarks/bench_simulator_throughput.py -q -s``.
"""

import os
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.gadgets import build_secand2
from repro.core.shares import share
from repro.des.engines import DESTraceSource, MaskedDESNetlistEngine
from repro.leakage.acquisition import CampaignConfig, run_campaign
from repro.obs.trace import disable_tracing, enable_tracing, get_tracer
from repro.sim.power import (
    PowerRecorder,
    packed_accumulator_counters,
    reset_packed_accumulator_counters,
)
from repro.sim.vectorsim import VectorSimulator

#: Lane-aligned masked-DES campaign (one 512-trace batch, 8 uint64
#: lanes): ragged batches are exactly where packing cannot pay.
DES_CONFIG = CampaignConfig(
    n_traces=512, batch_size=512, noise_sigma=1.0, seed=0
)

#: Packed masked-DES campaign of the tracing-overhead gate: four
#: 512-trace batches, ~1.5 s per run on a 2-CPU host.  A run of the
#: one-batch ``DES_CONFIG`` (~0.4 s) is short enough that scheduler
#: noise alone spans the 5% bound.
OBS_CONFIG = CampaignConfig(
    n_traces=2048, batch_size=512, noise_sigma=1.0, seed=0, pack_traces=True
)


def alternating_blocks(run_a, prep_a, run_b, prep_b, reps, rounds=3):
    """Time two workloads in alternating per-leg blocks.

    One untimed warm-up of each leg (it compiles schedules), then
    ``rounds`` times: ``reps`` timed runs of leg A, then of leg B.
    Per-leg blocks keep each leg's working set warm, as a campaign runs
    one engine back to back; alternating the blocks cancels host-speed
    drift (frequency scaling, steal time) between the legs.  ``prep``
    runs untimed before each run.

    Returns ``(t_a, t_b, ratio)``: the median block-median time of each
    leg and the median per-round ratio ``t_a / t_b``.
    """
    for prep, run in ((prep_a, run_a), (prep_b, run_b)):
        prep()
        run()

    def block(run, prep):
        times = []
        for _ in range(reps):
            prep()
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    t_as, t_bs = [], []
    for _ in range(rounds):
        t_as.append(block(run_a, prep_a))
        t_bs.append(block(run_b, prep_b))
    return (
        statistics.median(t_as),
        statistics.median(t_bs),
        statistics.median(a / b for a, b in zip(t_as, t_bs)),
    )


def _settle_leg(n_instances, n_traces, compiled, packed):
    """One leg of the secAND2-bank settle workload.

    Returns ``(sim, power, prep, run)`` over a fixed circuit, events and
    weights: ``prep`` resets the wires and starts a new recorder,
    ``run`` settles the events into it and ``power()`` reads the latest
    run's power matrix.  The same arguments give the same workload, so
    two legs differ only in the engine.
    """
    rng = np.random.default_rng(0)
    c = build_secand2(n_instances=n_instances)
    x0, x1 = share(rng.integers(0, 2, n_traces).astype(bool), rng)
    y0, y1 = share(rng.integers(0, 2, n_traces).astype(bool), rng)
    events = [
        (0, c.wire("y0"), y0),
        (1000, c.wire("x0"), x0),
        (1000, c.wire("x1"), x1),
        (2000, c.wire("y1"), y1),
    ]
    inputs = {c.wire(k): False for k in ("x0", "x1", "y0", "y1")}
    sim = VectorSimulator(
        c, n_traces, compile_schedules=compiled, pack_traces=packed
    )
    current = {}

    def prep():
        sim.reset_state(False)
        sim.evaluate_combinational(inputs)
        current["rec"] = PowerRecorder(
            n_traces, 5000, bin_ps=250, weights=sim.weights
        )

    def run():
        sim.settle(events, recorder=current["rec"])

    return sim, lambda: current["rec"].power, prep, run


@pytest.fixture(scope="module")
def des_source():
    engine = MaskedDESNetlistEngine("ff")
    return DESTraceSource(
        engine, 0x0123456789ABCDEF, 0x133457799BBCDFF1, prng_enabled=True
    )


def _assert_same_t(a, b, what):
    for order in ("t1", "t2", "t3"):
        assert np.array_equal(getattr(a, order), getattr(b, order)), (
            f"{what}: {order} differs"
        )


def test_bench_compiled_vs_interpreted_settle():
    """Schedule replay must beat the interpreted event loop >= 3x.

    A 64-instance secAND2 bank settling a 1024-trace batch with power
    recording, one ``acquire`` worth of simulation, sized so the
    interpreted engine's per-gate Python loop dominates the per-trace
    numpy work both engines share.  Values and power must agree
    bitwise.
    """
    sim_i, power_i, prep_i, run_i = _settle_leg(64, 1024, False, False)
    sim_c, power_c, prep_c, run_c = _settle_leg(64, 1024, True, False)
    t_i, t_c, speedup = alternating_blocks(run_i, prep_i, run_c, prep_c, 15)
    assert np.array_equal(sim_i.values, sim_c.values)
    assert np.array_equal(power_i(), power_c())
    print(
        f"\nsettle: interpreted {t_i * 1e3:.3f} ms  "
        f"compiled {t_c * 1e3:.3f} ms  speedup {speedup:.2f}x"
    )
    assert speedup >= 3.0


def test_bench_packed_vs_boolean_settle():
    """The uint64-lane engine must beat the boolean engine >= 3x.

    The same workload sized up to 16384 traces, so byte traffic (which
    packing shrinks 64x) dominates per-call numpy overhead.  Both legs
    run the compiled path and must agree bitwise on every wire value
    and power sample.
    """
    sim_b, power_b, prep_b, run_b = _settle_leg(64, 16384, True, False)
    sim_p, power_p, prep_p, run_p = _settle_leg(64, 16384, True, True)
    t_b, t_p, speedup = alternating_blocks(run_b, prep_b, run_p, prep_p, 9)
    for w in range(sim_b.values.shape[0]):
        assert np.array_equal(sim_b.wire_values(w), sim_p.wire_values(w))
    assert np.array_equal(power_b(), power_p())
    print(
        f"\nsettle_packed: boolean {t_b * 1e3:.3f} ms  "
        f"packed {t_p * 1e3:.3f} ms  speedup {speedup:.2f}x"
    )
    assert speedup >= 3.0


def test_bench_campaign_packed_vs_boolean(des_source):
    """End-to-end packed masked-DES campaign: >= 1.2x, bitwise equal.

    Serial on purpose, so the number isolates the engine, not the pool.
    End-to-end time includes TVLA accumulation and noise generation,
    which packing does not touch; hence 1.2x here vs >= 3x for the bare
    settle.  Both legs record power through one sink call per settle.
    """
    cfg_bool = replace(DES_CONFIG, pack_traces=False)
    cfg_packed = replace(DES_CONFIG, pack_traces=True)
    latest = {}

    def run_bool():
        latest["boolean"] = run_campaign(des_source, cfg_bool, n_workers=1)

    def run_packed():
        latest["packed"] = run_campaign(des_source, cfg_packed, n_workers=1)

    reset_packed_accumulator_counters()
    t_b, t_p, speedup = alternating_blocks(
        run_bool, lambda: None, run_packed, lambda: None, 1
    )
    sink = packed_accumulator_counters()
    _assert_same_t(latest["boolean"], latest["packed"], "packed campaign")
    print(
        f"\ncampaign_packed: boolean {t_b:.2f} s  packed {t_p:.2f} s  "
        f"speedup {speedup:.2f}x  "
        f"sink calls={sink['calls']}  rows={sink['rows']}"
    )
    assert 0 < sink["calls"] < sink["rows"], (
        "the campaign's settles never reached the recording sink, or it "
        "was fed one row per call"
    )
    assert speedup >= 1.2, (
        f"packed campaign speedup {speedup:.2f}x < 1.2x: the packed "
        "engine no longer pays end to end"
    )


def test_bench_campaign_serial_vs_parallel(des_source):
    """Four batches on four workers: >= 1.5x and bitwise equal to serial.

    Each batch runs full 16-round masked-DES encryptions (the paper's
    Fig. 14 workload), so the campaign is simulation-bound and the pool
    amortises.  Below four CPUs the comparison is skipped before it
    runs: four workers sharing fewer cores time only pool overhead.
    The bitwise half is also tier-1 (``tests/test_campaign_loop.py``).
    """
    cpu = os.cpu_count() or 1
    if cpu < 4:
        pytest.skip(f"parallel speedup needs >= 4 CPUs, host has {cpu}")
    cfg = CampaignConfig(n_traces=500, batch_size=125, noise_sigma=1.0, seed=0)
    serial = run_campaign(des_source, cfg, n_workers=1)
    parallel = run_campaign(des_source, cfg, n_workers=4)
    _assert_same_t(serial, parallel, "parallel campaign")
    speedup = serial.stats.wall_seconds / parallel.stats.wall_seconds
    print(
        f"\ncampaign: serial {serial.stats.wall_seconds:.2f} s  "
        f"parallel(4) {parallel.stats.wall_seconds:.2f} s  "
        f"speedup {speedup:.2f}x  cpu_count={cpu}"
    )
    assert speedup >= 1.5, (
        f"parallel campaign speedup {speedup:.2f}x on a {cpu}-CPU host"
    )


def test_bench_obs_overhead(des_source):
    """Tracing a packed campaign must cost <= 5% and change no bits.

    A four-batch packed masked-DES campaign (``OBS_CONFIG``), run with
    :mod:`repro.obs` span tracing on (a fresh tracer per run, so the
    ring never wraps) and off.  The traced t-statistics must equal the
    untraced ones bitwise and the trace must hold spans: tracing
    observes the campaign, never perturbs it.
    """
    latest = {}
    spans = []

    def run_off():
        latest["untraced"] = run_campaign(des_source, OBS_CONFIG, n_workers=1)

    def run_on():
        latest["traced"] = run_campaign(des_source, OBS_CONFIG, n_workers=1)
        spans[:] = get_tracer().drain()

    # Each run takes ~1.5 s, long enough to average out the scheduler
    # noise that swung the one-batch campaign's (~0.4 s) ratio across
    # the bound.  Slowdowns on a shared host last several seconds, so
    # the legs alternate run by run (a block of three runs per leg let
    # one burst land on one leg: +26% and -8% in back-to-back runs),
    # and the median of 21 adjacent-pair ratios is the reading.
    try:
        t_on, t_off, ratio = alternating_blocks(
            run_on, enable_tracing, run_off, disable_tracing, 1, rounds=21
        )
    finally:
        disable_tracing()
    _assert_same_t(latest["untraced"], latest["traced"], "traced campaign")
    overhead = ratio - 1.0
    print(
        f"\nobs: untraced {t_off:.3f} s  traced {t_on:.3f} s  "
        f"overhead {overhead * 100:+.1f}%  spans={len(spans)}"
    )
    assert spans, "traced campaign recorded no spans"
    assert overhead <= 0.05, (
        f"span-tracing overhead {overhead * 100:+.1f}% > 5% on the packed "
        "campaign path: repro.obs is no longer near-free in the hot loop"
    )
