"""Bitwise equivalence of the bit-packed engine against the boolean one.

The packed engine is only allowed to change *time*, never *bits*: for
every workload in the repo — the full gadget preset zoo, the masked-DES
clocked harness, random glitchy circuits — packed and boolean runs must
produce identical power samples, identical TVLA t-statistics, identical
event accounting and identical per-wire transition logs, including on
ragged batches (``n_traces % 64 != 0``) where the final lane carries
pad bits.
"""

import numpy as np
import pytest

from repro.core.sequences import INPUT_NAMES, SequenceSource
from repro.des.bits import int_to_bitarray
from repro.des.engines import MaskedDESNetlistEngine
from repro.leakage.acquisition import (
    CampaignConfig,
    run_campaign,
    suggest_batch_size,
)
from repro.leakage.prng import RandomnessSource
from repro.sim.clocking import ClockedHarness
from repro.sim.power import NullRecorder, PowerRecorder, TransientRecorder
from repro.sim.vectorsim import VectorSimulator
from repro.verify import preset_spec
from repro.verify.crossval import SpecTraceSource
from repro.verify.presets import PRESETS

from .test_compiled import (
    LoggingRecorder,
    assert_logs_equal,
    random_circuit,
    random_events,
)

#: Deliberately ragged campaign geometry: 120 % 64 != 0 and the final
#: batch is 80 traces — every packed batch exercises lane padding.
N_TRACES = 200
BATCH = 120


def _preset_campaign(name, pack_traces):
    """A small fixed-vs-random campaign over one gadget preset.

    Fresh spec and source per call so schedule-cache state (compile
    counters) cannot leak between the two legs.
    """
    source = SpecTraceSource(preset_spec(name))
    config = CampaignConfig(
        n_traces=N_TRACES,
        batch_size=BATCH,
        noise_sigma=0.5,
        seed=7,
        pack_traces=pack_traces,
    )
    return run_campaign(source, config, n_workers=1)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_campaign_bitwise_equal(name):
    """Packed campaigns on every gadget preset: identical TvlaResult
    t-statistics (all three orders) and identical campaign accounting."""
    boolean = _preset_campaign(name, pack_traces=False)
    packed = _preset_campaign(name, pack_traces=True)
    assert np.array_equal(boolean.t1, packed.t1)
    assert np.array_equal(boolean.t2, packed.t2)
    assert np.array_equal(boolean.t3, packed.t3)
    bs, ps = boolean.stats, packed.stats
    assert bs.n_traces == ps.n_traces == N_TRACES
    assert len(bs.batches) == len(ps.batches)
    assert bs.schedule_compiles == ps.schedule_compiles
    assert bs.schedule_replays == ps.schedule_replays


@pytest.mark.parametrize(
    "name", ["secand2_pd", "dom_indep", "trichina_late_x"]
)
def test_preset_power_samples_bitwise_equal(name):
    """Raw recorder output of one acquire: float-for-float identical."""
    rng_kw = dict(seed=123)
    fixed = np.zeros(90, dtype=bool)  # 90 traces: ragged final lane
    fixed[::2] = True
    powers = []
    for pack in (False, True):
        source = SpecTraceSource(preset_spec(name), pack_traces=pack)
        powers.append(source.acquire(fixed, np.random.default_rng(**rng_kw)))
    assert np.array_equal(powers[0], powers[1])


# ----------------------------------------------------------------------
# masked-DES clocked harness
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def des_engine():
    return MaskedDESNetlistEngine("ff")


def test_masked_des_packed_batch_bitwise_equal(des_engine):
    """Full 16-round masked DES, ragged 66-trace batch: ciphertext and
    every power sample identical between the engines."""
    rng = np.random.default_rng(9)
    n = 66  # 66 % 64 == 2: two real bits in the second lane
    pt = int_to_bitarray(rng.integers(0, 2**63, n, dtype=np.uint64), 64)
    ky = int_to_bitarray(rng.integers(0, 2**63, n, dtype=np.uint64), 64)
    ct_b, p_b = des_engine.run_batch(
        pt, ky, RandomnessSource(11), pack_traces=False
    )
    ct_p, p_p = des_engine.run_batch(
        pt, ky, RandomnessSource(11), pack_traces=True
    )
    assert np.array_equal(ct_b, ct_p)
    assert np.array_equal(p_b, p_p)


# ----------------------------------------------------------------------
# sequence-source campaign (interpreted + compiled VectorSimulator path)
# ----------------------------------------------------------------------
def test_sequence_source_campaign_bitwise_equal():
    results = []
    for pack in (False, True):
        source = SequenceSource(INPUT_NAMES, n_instances=4)
        config = CampaignConfig(
            n_traces=N_TRACES,
            batch_size=BATCH,
            noise_sigma=1.0,
            seed=3,
            pack_traces=pack,
        )
        results.append(run_campaign(source, config, n_workers=1))
    boolean, packed = results
    assert np.array_equal(boolean.t1, packed.t1)
    assert np.array_equal(boolean.t2, packed.t2)
    assert np.array_equal(boolean.t3, packed.t3)


# ----------------------------------------------------------------------
# transition order, event accounting, glitchy random circuits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 2, 4])
@pytest.mark.parametrize("compiled", [False, True])
def test_random_circuit_packed_transition_equality(seed, compiled):
    """Per-wire transition logs — time, wire, toggle mask, new value —
    in identical order, on glitchy random circuits, both engines, with
    a ragged trace count."""
    c = random_circuit(seed, jitter=True)
    rng = np.random.default_rng(seed + 500)
    n = 70  # ragged
    events_a = random_events(c, rng, n)
    events_b = random_events(c, rng, n)
    out = []
    for pack in (False, True):
        sim = VectorSimulator(
            c, n, compile_schedules=compiled, pack_traces=pack
        )
        rec = LoggingRecorder()
        times = [
            sim.settle(events, recorder=rec)
            for events in (events_a, events_b)
        ]
        values = np.stack(
            [sim.wire_values(w) for w in range(c.n_wires)]
        )
        out.append((times, sim.events_processed, values, rec.log))
    (tb, eb, vb, lb), (tp, ep, vp, lp) = out
    assert tb == tp
    assert eb == ep
    assert np.array_equal(vb, vp)
    assert_logs_equal(lb, lp)


@pytest.mark.parametrize("compiled", [False, True])
def test_coupling_window_ordering_bitwise_equal(compiled):
    """CouplingModel energy depends on the *order* of coincident
    transitions inside the window; packed runs must reproduce the
    boolean engine's recording order exactly."""
    from repro.sim.power import CouplingModel

    c = random_circuit(7, jitter=True)
    rng = np.random.default_rng(77)
    n = 90  # ragged
    events = random_events(c, rng, n)
    powers = []
    for pack in (False, True):
        sim = VectorSimulator(
            c, n, compile_schedules=compiled, pack_traces=pack
        )
        coupling = CouplingModel(
            pairs=[(2, 5), (6, 9)], coefficient=0.05
        )
        rec = PowerRecorder(
            n, 6000, bin_ps=250, weights=sim.weights, coupling=coupling
        )
        sim.settle(events, recorder=rec)
        powers.append(rec.power)
    assert np.array_equal(powers[0], powers[1])


# ----------------------------------------------------------------------
# NullRecorder fast path + TransientRecorder refusal
# ----------------------------------------------------------------------
@pytest.mark.parametrize("compiled", [False, True])
def test_null_recorder_packed_fast_path(compiled):
    """NullRecorder settles skip recording entirely in packed mode but
    must leave functional results and event counts untouched."""
    c = random_circuit(1)
    rng = np.random.default_rng(42)
    n = 100
    events = random_events(c, rng, n)
    out = []
    for pack in (False, True):
        sim = VectorSimulator(
            c, n, compile_schedules=compiled, pack_traces=pack
        )
        t = sim.settle(events, recorder=NullRecorder())
        values = np.stack(
            [sim.wire_values(w) for w in range(c.n_wires)]
        )
        out.append((t, sim.events_processed, values))
    assert out[0][0] == out[1][0]
    assert out[0][1] == out[1][1]
    assert np.array_equal(out[0][2], out[1][2])


def test_null_recorder_methods_are_noops():
    rec = NullRecorder()
    assert rec.is_null
    rec.record_wire(0, 3, np.ones(4, bool), np.zeros(4, bool))
    rec.record_batch(0, [(1, np.ones(4, bool), np.zeros(4, bool))])
    assert rec.n_bins == 0


def test_transient_recorder_refuses_packed_settle():
    """TransientRecorder needs per-trace transients; the packed engine
    must refuse it loudly instead of silently unpacking everything."""
    c = random_circuit(3)
    n = 128
    sim = VectorSimulator(c, n, pack_traces=True)
    rec = TransientRecorder()
    events = random_events(c, np.random.default_rng(0), n)
    with pytest.raises(RuntimeError, match="pack_traces=False"):
        sim.settle(events, recorder=rec)


def test_transient_recorder_fine_with_auto_small_batch():
    """'auto' keeps small verify-style batches boolean, so the exact
    verifier's TransientRecorder path is unaffected by the default."""
    c = random_circuit(3)
    n = 8
    sim = VectorSimulator(
        c, n, compile_schedules=False, pack_traces="auto"
    )
    assert not sim.packed
    events = random_events(c, np.random.default_rng(0), n)
    sim.settle(events, recorder=TransientRecorder())


# ----------------------------------------------------------------------
# clocked harness state across cycles
# ----------------------------------------------------------------------
def test_clocked_harness_ff_state_bitwise_equal():
    """Flip-flop sampling (the packed bitwise mux) across cycles."""
    from repro.core.gadgets import build_secand2_ff

    c = build_secand2_ff()
    rng = np.random.default_rng(5)
    n = 77
    names = [w for w in ("x0", "x1", "y0", "y1")]
    vals = {k: rng.integers(0, 2, n).astype(bool) for k in names}
    out = []
    for pack in (False, True):
        h = ClockedHarness(c, n, period_ps=4000, pack_traces=pack)
        h.preload({}, {c.wire(k): False for k in names})
        rec = PowerRecorder(n, 12000, bin_ps=250, weights=h.sim.weights)
        for cycle in range(3):
            events = [
                (100 + 300 * i, c.wire(k), vals[k])
                for i, k in enumerate(names)
            ]
            h.step(events, recorder=rec)
        out.append((h.ff_state("secand2ff_ff_y1"), rec.power))
    assert np.array_equal(out[0][0], out[1][0])
    assert np.array_equal(out[0][1], out[1][1])


# ----------------------------------------------------------------------
# batch-size autotuning (satellite: lane-aligned batches)
# ----------------------------------------------------------------------
def test_suggest_batch_size_rounds_to_lane_width():
    assert suggest_batch_size(100_000, 1, pack_traces=True) % 64 == 0
    assert suggest_batch_size(100_000, 3, pack_traces="auto") % 64 == 0
    # boolean engine: no rounding constraint
    assert suggest_batch_size(10_000, 3, pack_traces=False) == 833
    # tiny campaigns stay unrounded even when packing is forced
    assert suggest_batch_size(30, 1, pack_traces=True) == 30


def test_autotune_rounds_when_packed():
    cfg = CampaignConfig(
        n_traces=100_000, batch_size=1, pack_traces="auto"
    ).autotune(cpu_count=4)
    assert cfg.batch_size % 64 == 0
    boolean = CampaignConfig(
        n_traces=100_000, batch_size=1, pack_traces=False
    ).autotune(cpu_count=4)
    assert boolean.batch_size >= 256


def test_campaign_config_rejects_bad_pack_traces():
    with pytest.raises(ValueError):
        CampaignConfig(n_traces=100, batch_size=50, pack_traces="always")


# ----------------------------------------------------------------------
# bench: single-CPU campaign skip (satellite: cpu_count<2)
# ----------------------------------------------------------------------
def test_bench_records_campaign_skip_on_single_cpu(monkeypatch):
    from repro.eval import bench

    monkeypatch.setattr(bench, "_cpu_count", lambda: 1)
    called = []
    monkeypatch.setattr(
        bench,
        "campaign_comparison",
        lambda *a, **k: called.append(a) or {},
    )
    result = bench.run(quick=True, write=False)
    assert not called, "parallel leg must not run at all on 1 CPU"
    campaign = result.payload["campaign"]
    assert campaign["skipped_reason"] == "cpu_count<2"
    assert result.payload["parallel_comparison_valid"] is False
    assert "skipped (cpu_count<2)" in result.render()
    # the in-process packed sections still ran
    assert result.payload["settle_packed"]["speedup"] > 0
    assert result.payload["campaign_packed"]["bitwise_equal"] is True


def test_bench_runs_campaign_with_enough_cpus(monkeypatch):
    from repro.eval import bench

    monkeypatch.setattr(bench, "_cpu_count", lambda: 4)
    sentinel = {"source": "stub", "speedup": 1.0, "bitwise_equal": True}
    monkeypatch.setattr(
        bench, "campaign_comparison", lambda *a, **k: sentinel
    )
    result = bench.run(quick=True, write=False)
    assert result.payload["campaign"] is sentinel
    assert result.payload["parallel_comparison_valid"] is True


# ----------------------------------------------------------------------
# packed-domain power recording
# ----------------------------------------------------------------------
@pytest.mark.parametrize("compiled", [False, True])
def test_plain_recorder_power_bitwise_equal_both_paths(compiled):
    """A coupling-free PowerRecorder fed packed lanes (by both the
    compiled replay and the interpreted loop) must stay float-for-float
    identical to the boolean engine on a ragged batch with weight > 1
    wires (1 + fanout)."""
    c = random_circuit(11, jitter=True)
    rng = np.random.default_rng(111)
    n = 90  # ragged final lane
    events = random_events(c, rng, n)
    powers = []
    for pack in (False, True):
        sim = VectorSimulator(
            c, n, compile_schedules=compiled, pack_traces=pack
        )
        rec = PowerRecorder(n, 6000, bin_ps=250, weights=sim.weights)
        sim.settle(events, recorder=rec)
        powers.append(rec.power.copy())
    assert np.array_equal(powers[0], powers[1])


def test_packed_acquire_feeds_one_sink_call_per_settle():
    """End-to-end packed acquisition bins a settle's transitions in one
    sink call (no per-event recording)."""
    from repro.sim.power import (
        packed_accumulator_counters,
        reset_packed_accumulator_counters,
    )

    reset_packed_accumulator_counters()
    source = SequenceSource(INPUT_NAMES, n_instances=4, pack_traces=True)
    source.acquire(np.ones(128, dtype=bool), np.random.default_rng(0))
    counters = packed_accumulator_counters()
    assert counters["calls"] == 1  # the acquisition is one settle
    assert counters["rows"] > 1


def test_engine_auto_packs_with_coupling_recorder(des_engine, monkeypatch):
    """pack_traces='auto' + a coupling recorder: the batch runs packed
    (the sink sees lanes) and matches the boolean engine bitwise."""
    from repro.sim import power

    monkeypatch.setattr(
        des_engine, "coupling_pairs", [(0, 1)], raising=False
    )
    dtypes = set()
    add = power.PackedToggleAccumulator.add

    def spy(self, times, wires, toggled, new):
        dtypes.add(toggled.dtype)
        return add(self, times, wires, toggled, new)

    rng = np.random.default_rng(21)
    n = 66
    pt = int_to_bitarray(rng.integers(0, 2**63, n, dtype=np.uint64), 64)
    ky = int_to_bitarray(rng.integers(0, 2**63, n, dtype=np.uint64), 64)
    ct_b, p_b = des_engine.run_batch(
        pt, ky, RandomnessSource(11),
        coupling_coefficient=0.25, pack_traces=False,
    )
    monkeypatch.setattr(power.PackedToggleAccumulator, "add", spy)
    ct_a, p_a = des_engine.run_batch(
        pt, ky, RandomnessSource(11),
        coupling_coefficient=0.25, pack_traces="auto",
    )
    assert dtypes == {np.dtype(np.uint64)}
    assert np.array_equal(ct_b, ct_a)
    assert np.array_equal(p_b, p_a)
