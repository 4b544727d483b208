"""Unit tests for the vectorised glitch simulator, including the
n-trace against one-trace cross-check on random circuits."""

import numpy as np
import pytest

from repro.netlist.circuit import Circuit, CircuitError
from repro.sim.power import PowerRecorder, TransientRecorder
from repro.sim.vcd import trace_waveforms
from repro.sim.vectorsim import SimulationError, VectorSimulator


def xor_and_circuit():
    c = Circuit()
    a, b = c.add_inputs("a", "b")
    z = c.xor2(c.and2(a, b), c.or2(a, b))
    c.mark_output("z", z)
    return c, a, b, z


def test_functional_evaluation():
    c, a, b, z = xor_and_circuit()
    sim = VectorSimulator(c, 4)
    av = np.array([0, 0, 1, 1], bool)
    bv = np.array([0, 1, 0, 1], bool)
    sim.evaluate_combinational({a: av, b: bv})
    assert np.array_equal(sim.values[z], (av & bv) ^ (av | bv))


def test_settle_reaches_same_values_as_functional():
    c, a, b, z = xor_and_circuit()
    av = np.array([0, 1, 1], bool)
    bv = np.array([1, 0, 1], bool)
    s1 = VectorSimulator(c, 3)
    s1.evaluate_combinational({a: av, b: bv})
    s2 = VectorSimulator(c, 3)
    s2.settle([(0, a, av), (0, b, bv)])
    assert np.array_equal(s1.values[z], s2.values[z])


def test_settle_returns_last_event_time():
    c, a, b, z = xor_and_circuit()
    sim = VectorSimulator(c, 1)
    t = sim.settle([(100, a, np.array([True]))])
    assert t >= 100


def test_scalar_broadcast_events():
    c, a, b, z = xor_and_circuit()
    sim = VectorSimulator(c, 5)
    sim.settle([(0, a, True), (0, b, False)])
    assert np.all(sim.values[a])
    assert not np.any(sim.values[b])


def test_bad_event_shape_rejected():
    c, a, b, z = xor_and_circuit()
    sim = VectorSimulator(c, 4)
    with pytest.raises(ValueError, match="expected shape"):
        sim.settle([(0, a, np.zeros(3, bool))])


def test_output_values_and_wire_values():
    c, a, b, z = xor_and_circuit()
    sim = VectorSimulator(c, 2)
    sim.evaluate_combinational({a: True, b: True})
    out = sim.output_values()
    assert np.array_equal(out["z"], sim.wire_values(z))


def test_event_budget_error():
    c = Circuit()
    a = c.add_input("a")
    w = a
    for _ in range(100):
        w = c.inv(w)
    sim = VectorSimulator(c, 1)
    sim.evaluate_combinational({a: False})
    with pytest.raises(SimulationError, match="budget"):
        sim.settle([(0, a, True)], max_events=3)


def ring_oscillator():
    """NAND ring: oscillates while the enable input is high."""
    c = Circuit()
    en = c.add_input("en")
    fb = c.add_wire("osc")
    c.add_gate("NAND2", [en, fb], output=fb, name="ringnand")
    return c, en


def test_loop_rejected_without_allow_loops():
    c, en = ring_oscillator()
    with pytest.raises(CircuitError):
        c.check()
    with pytest.raises(CircuitError):
        VectorSimulator(c, 1)


@pytest.mark.parametrize("compile_schedules", [True, False])
def test_oscillation_error_names_wires_and_budget(compile_schedules):
    c, en = ring_oscillator()
    sim = VectorSimulator(c, 2, compile_schedules=compile_schedules,
                          allow_loops=True)
    with pytest.raises(SimulationError) as ei:
        sim.settle([(0, en, True)], max_events=500)
    err = ei.value
    assert err.budget == 500
    assert err.time_ps is not None
    assert "osc" in err.wires
    assert "osc" in str(err)
    assert "500" in str(err)


def test_oscillation_stops_when_enable_falls():
    c, en = ring_oscillator()
    sim = VectorSimulator(c, 1, allow_loops=True)
    # oscillate for a bounded window, then NAND(0, fb) == 1: settles
    sim.settle([(0, en, True), (300, en, False)], max_events=10_000)
    assert sim.values[c.wire("osc")][0]


def test_power_recorded_on_transitions():
    c, a, b, z = xor_and_circuit()
    sim = VectorSimulator(c, 2)
    sim.evaluate_combinational({a: False, b: False})
    rec = PowerRecorder(2, 1000, bin_ps=250, weights=sim.weights)
    sim.settle([(0, a, np.array([True, False]))], recorder=rec)
    # trace 0 toggled, trace 1 did not
    assert rec.power[0].sum() > 0
    assert rec.power[1].sum() == 0


def test_ff_outputs_not_driven_combinationally():
    c = Circuit()
    a = c.add_input("a")
    q = c.dff(a, name="ff")
    z = c.inv(q)
    sim = VectorSimulator(c, 1)
    sim.settle([(0, a, True)])
    # the FF does not propagate combinationally: q stays 0
    assert not sim.values[q][0]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_vector_matches_scalar_on_random_circuit(seed):
    """An n-trace run against n one-trace (scalar) runs, trace for
    trace: the same waveform on every wire and the same final values,
    on the boolean and the packed engine."""
    rng = np.random.default_rng(seed)
    c = Circuit()
    wires = [c.add_input(f"i{k}") for k in range(4)]
    cells = ["AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2"]
    for k in range(15):
        kind = cells[rng.integers(0, len(cells))]
        a, b = rng.choice(len(wires), 2)
        wires.append(c.add_gate(kind, [wires[a], wires[b]]))

    n = 5
    inputs = [c.wire(f"i{k}") for k in range(4)]
    stim = [
        (200 * k, w, rng.integers(0, 2, n).astype(bool))
        for k, w in enumerate(inputs)
    ]

    def run(n_traces, events, pack=False):
        sim = VectorSimulator(c, n_traces, pack_traces=pack)
        sim.evaluate_combinational({w: False for w in inputs})
        rec = TransientRecorder(n_traces)
        sim.settle(events, recorder=rec, t_offset=100_000)
        final = np.stack([sim.wire_values(w) for w in range(c.n_wires)])
        return rec.events, final

    singles = [run(1, [(t, w, v[i : i + 1]) for t, w, v in stim]) for i in range(n)]
    assert any(events for events, _ in singles)
    for pack in (False, True):
        events, final = run(n, stim, pack)
        for i, (one_events, one_final) in enumerate(singles):
            assert np.array_equal(final[:, i], one_final[:, 0])
            assert trace_waveforms(events, final[:, i], trace=i) == (
                trace_waveforms(one_events, one_final[:, 0])
            )
