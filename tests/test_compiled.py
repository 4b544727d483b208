"""Compiled replay vs interpreted settle: transition-for-transition
equality on random circuits and on the secAND2 gadgets, with and
without routing jitter."""

import numpy as np
import pytest

from repro.core.gadgets import (
    SharePair,
    build_secand2,
    build_secand2_ff,
    build_secand2_pd,
    secand2_pd,
)
from repro.core.shares import share
from repro.netlist.circuit import Circuit
from repro.sim.clocking import ClockedHarness
from repro.sim.compiled import schedule_cache_info
from repro.sim.power import PowerRecorder
from repro.sim.vectorsim import SimulationError, VectorSimulator


class LoggingRecorder:
    """Records every transition verbatim.

    Not a :class:`PowerRecorder`, so both engines deliver each settle's
    transitions to :meth:`record_wire` one by one, in recording order —
    the log captures the *order* of recorded transitions, not just
    their sum.
    """

    def __init__(self):
        self.log = []

    def record_wire(self, t_ps, wire, toggled, new):
        self.log.append((t_ps, wire, toggled.copy(), new.copy()))


def assert_logs_equal(log_a, log_b):
    assert len(log_a) == len(log_b)
    for (ta, wa, ga, na), (tb, wb, gb, nb) in zip(log_a, log_b):
        assert ta == tb
        assert wa == wb
        assert np.array_equal(ga, gb)
        assert np.array_equal(na, nb)


def random_circuit(seed, jitter=False):
    rng = np.random.default_rng(seed)
    c = Circuit(f"rand{seed}")
    if jitter:
        c.enable_routing_jitter(
            seed + 100, gate_sigma_ps=60.0, delay_sigma_ps=150.0
        )
    wires = [c.add_input(f"i{k}") for k in range(4)]
    cells = ["AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2"]
    for _ in range(25):
        r = int(rng.integers(0, 8))
        if r == 6:
            wires.append(c.inv(wires[int(rng.integers(0, len(wires)))]))
        elif r == 7:
            s, a, b = rng.choice(len(wires), 3)
            wires.append(c.mux2(wires[s], wires[a], wires[b]))
        else:
            a, b = rng.choice(len(wires), 2)
            wires.append(c.add_gate(cells[r], [wires[a], wires[b]]))
    wires.append(
        c.delay_line(wires[int(rng.integers(0, len(wires)))], 2, 2)
    )
    c.mark_output("z", wires[-1])
    c.check()
    return c


def random_events(c, rng, n):
    """Four input events with partially coinciding times."""
    return [
        (int(rng.integers(0, 4)) * 500, c.wire(f"i{k}"),
         rng.integers(0, 2, n).astype(bool))
        for k in range(4)
    ]


def run_both(circuit, events_list, n):
    """Run the same event sequences interpreted and compiled.

    Returns per-engine (settle_times, events_processed, values, log)
    tuples for comparison.
    """
    out = []
    for compiled in (False, True):
        sim = VectorSimulator(circuit, n, compile_schedules=compiled)
        rec = LoggingRecorder()
        times = [sim.settle(events, recorder=rec) for events in events_list]
        out.append((times, sim.events_processed, sim.values.copy(), rec.log))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("jitter", [False, True])
def test_random_circuit_transition_equality(seed, jitter):
    c = random_circuit(seed, jitter=jitter)
    rng = np.random.default_rng(seed + 1000)
    n = 48
    events_a = random_events(c, rng, n)
    events_b = random_events(c, rng, n)  # second settle: persisted state
    (ti, ei, vi, li), (tc, ec, vc, lc) = run_both(c, [events_a, events_b], n)
    assert ti == tc
    assert ei == ec
    assert np.array_equal(vi, vc)
    assert_logs_equal(li, lc)


@pytest.mark.parametrize("seed", [0, 1])
def test_random_circuit_power_bitwise(seed):
    """Batched per-bin energy deposits equal per-wire accumulation."""
    c = random_circuit(seed)
    rng = np.random.default_rng(seed)
    n = 32
    events = random_events(c, rng, n)
    powers = []
    for compiled in (False, True):
        sim = VectorSimulator(c, n, compile_schedules=compiled)
        rec = PowerRecorder(n, 10_000, bin_ps=100, weights=sim.weights)
        sim.settle(events, recorder=rec)
        powers.append(rec.power.copy())
    assert np.array_equal(powers[0], powers[1])


def _drive_gadget_harness(circuit, compiled, n, rng_seed, reset_groups=()):
    rng = np.random.default_rng(rng_seed)
    h = ClockedHarness(
        circuit, n, period_ps=20_000, compile_schedules=compiled
    )
    rec = PowerRecorder(
        n, h.total_time_ps(6), bin_ps=50, weights=h.sim.weights
    )
    log = LoggingRecorder()
    names = ("x0", "x1", "y0", "y1")
    for cycle in range(6):
        vals = {k: rng.integers(0, 2, n).astype(bool) for k in names}
        events = [
            (1000 * (i + 1), circuit.wire(k), vals[k])
            for i, k in enumerate(names)
        ]
        h.step(
            events,
            recorder=rec if cycle % 2 == 0 else log,
            reset_groups=reset_groups if cycle % 3 == 0 else (),
        )
    return h, rec.power.copy(), log.log


@pytest.mark.parametrize(
    "build, reset_groups",
    [
        (build_secand2_ff, ("gadget",)),
        (lambda: build_secand2_pd(n_luts=2), ()),
        (lambda: build_secand2(n_instances=4), ()),
    ],
)
def test_gadget_harness_equality(build, reset_groups):
    c = build()
    n = 40
    hi, pi, li = _drive_gadget_harness(c, False, n, 7, reset_groups)
    hc, pc, lc = _drive_gadget_harness(c, True, n, 7, reset_groups)
    assert np.array_equal(hi.sim.values, hc.sim.values)
    assert hi.sim.events_processed == hc.sim.events_processed
    assert np.array_equal(pi, pc)
    assert_logs_equal(li, lc)
    for name, vals in hi.output_values().items():
        assert np.array_equal(vals, hc.output_values()[name])


def test_jittered_pd_gadget_equality():
    """Float event times (routing jitter) replay exactly too."""
    c = Circuit("pd-jitter")
    c.enable_routing_jitter(11, gate_sigma_ps=40.0, delay_sigma_ps=300.0)
    x0, x1, y0, y1 = c.add_inputs("x0", "x1", "y0", "y1")
    z = secand2_pd(c, SharePair(x0, x1), SharePair(y0, y1), n_luts=2)
    c.mark_output("z0", z.s0)
    c.mark_output("z1", z.s1)
    c.check()
    rng = np.random.default_rng(3)
    n = 24
    events = [
        (0, y0, rng.integers(0, 2, n).astype(bool)),
        (500, x0, rng.integers(0, 2, n).astype(bool)),
        (500, x1, rng.integers(0, 2, n).astype(bool)),
        (1500, y1, rng.integers(0, 2, n).astype(bool)),
    ]
    results = []
    for compiled in (False, True):
        sim = VectorSimulator(c, n, compile_schedules=compiled)
        rec = LoggingRecorder()
        t = sim.settle(events, recorder=rec)
        results.append((t, sim.values.copy(), rec.log))
    assert results[0][0] == results[1][0]
    assert np.array_equal(results[0][1], results[1][1])
    assert_logs_equal(results[0][2], results[1][2])


def test_compiled_path_populates_cache():
    c = build_secand2(n_instances=2)
    info = schedule_cache_info(c)
    assert info["patterns"] == 0 and info["compiled"] == 0
    sim = VectorSimulator(c, 8)
    sim.settle([(0, c.wire("x0"), True)])
    info = schedule_cache_info(c)
    assert info["patterns"] == 1 and info["compiled"] == 1
    assert info["compiles"] == 1 and info["hits"] == 0
    # same pattern again: cache hit, no new entry
    sim.settle([(0, c.wire("x0"), False)])
    info = schedule_cache_info(c)
    assert info["patterns"] == 1 and info["hits"] == 1
    # different timing pattern: new entry
    sim.settle([(100, c.wire("x0"), True)])
    assert schedule_cache_info(c)["patterns"] == 2


def test_cache_invalidated_on_structural_change():
    c = build_secand2(n_instances=1)
    sim = VectorSimulator(c, 4)
    sim.settle([(0, c.wire("x0"), True)])
    assert schedule_cache_info(c)["patterns"] == 1
    c.inv(c.wire("x0"))  # structural edit: new gate + wire
    info = schedule_cache_info(c)
    assert info["patterns"] == 0 and info["compiled"] == 0


def test_budget_error_parity():
    c = Circuit()
    a = c.add_input("a")
    w = a
    for _ in range(100):
        w = c.inv(w)
    for compiled in (False, True):
        sim = VectorSimulator(c, 2, compile_schedules=compiled)
        sim.evaluate_combinational({a: False})
        with pytest.raises(SimulationError, match="budget"):
            sim.settle([(0, a, True)], max_events=3)


def test_events_processed_matches_interpreted():
    c = build_secand2(n_instances=3)
    n = 16
    counts = []
    for compiled in (False, True):
        rng = np.random.default_rng(1)  # identical stimuli per engine
        sim = VectorSimulator(c, n, compile_schedules=compiled)
        for _ in range(4):
            events = [
                (0, c.wire("y0"), rng.integers(0, 2, n).astype(bool)),
                (700, c.wire("x0"), rng.integers(0, 2, n).astype(bool)),
            ]
            sim.settle(events)
        counts.append(sim.events_processed)
    assert counts[0] == counts[1]


def test_stale_state_no_spurious_repair():
    """After reset_state, replay must not "repair" wires whose inputs
    never toggle — the interpreter leaves them stale, and so must we."""
    c = build_secand2(n_instances=2)
    n = 8
    ones = np.ones(n, bool)
    for compiled in (False, True):
        sim = VectorSimulator(c, n, compile_schedules=compiled)
        sim.settle([(0, c.wire("x0"), ones), (0, c.wire("y0"), ones)])
        state_after = sim.values.copy()
        sim.reset_state(False)
        # event that toggles nothing: values stay all-zero (stale),
        # even though the compiled schedule covers the whole cone
        sim.settle([(0, c.wire("x0"), np.zeros(n, bool))])
        assert not sim.values.any()
        del state_after
