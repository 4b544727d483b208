"""One-trace (scalar) runs of the vector simulator: waveforms, glitches.

A single-stimulus :class:`VectorSimulator` run with a
:class:`TransientRecorder` holds every transition of every wire;
:func:`trace_waveforms` turns its events into per-wire waveforms (the
path of the verifier's VCD counterexamples).
"""

import pytest

from repro.netlist.circuit import Circuit
from repro.sim.power import TransientRecorder
from repro.sim.vcd import Waveform, trace_waveforms
from repro.sim.vectorsim import SimulationError, VectorSimulator


def one_trace(c, settled=True):
    """A one-trace simulator (all-zero inputs, settled unless told
    otherwise) and a transient recorder for it."""
    sim = VectorSimulator(c, 1)
    if settled:
        sim.evaluate_combinational({})
    return sim, TransientRecorder(1)


def waves(sim, rec):
    return trace_waveforms(rec.events, sim.values[:, 0])


def test_waveform_value_at():
    wf = Waveform(initial=False, changes=[(10, True), (30, False)])
    assert wf.value_at(5) is False
    assert wf.value_at(10) is True
    assert wf.value_at(29) is True
    assert wf.value_at(30) is False
    assert wf.n_transitions == 2


def test_single_gate_propagation():
    c = Circuit()
    a = c.add_input("a")
    z = c.inv(a, name="inv")
    sim, _ = one_trace(c, settled=False)
    sim.settle([(0, a, True)])
    # the all-zero state is inconsistent for the inverter; its
    # re-evaluation on a's toggle leaves the output at 0
    assert not sim.values[z][0]


def test_glitch_on_unbalanced_xor_paths():
    """The canonical glitch: XOR of a signal with a delayed copy of
    itself pulses when the input toggles."""
    c = Circuit()
    a = c.add_input("a")
    slow = c.buf(c.buf(a))           # 2 x 24 ps
    z = c.xor2(a, slow, name="gl")
    sim, rec = one_trace(c)
    sim.settle([(1000, a, True)], recorder=rec)
    wf = waves(sim, rec)[z]
    # z pulses 1 then returns to 0: exactly two transitions
    assert wf.n_transitions == 2
    assert wf.initial is False
    assert wf.value_at(wf.changes[0][0]) is True
    assert not sim.values[z][0]


def test_no_glitch_on_balanced_paths():
    c = Circuit()
    a, b = c.add_inputs("a", "b")
    z = c.xor2(c.and2(a, b), c.or2(a, b))  # AND/OR same delay
    sim, rec = one_trace(c)
    sim.settle([(1000, a, True), (1000, b, True)], recorder=rec)
    # both XOR inputs toggle simultaneously -> at most one transition
    assert waves(sim, rec)[z].n_transitions <= 1


def test_toggle_counts_by_name():
    c = Circuit()
    a = c.add_input("a")
    c.inv(a, name="theinv")
    sim, rec = one_trace(c, settled=False)
    sim.settle([(0, a, True)], recorder=rec)
    counts = {
        c.wire_name(w): wf.n_transitions
        for w, wf in waves(sim, rec).items()
        if wf.n_transitions
    }
    assert counts["a"] == 1


def test_total_toggles_accumulate():
    c = Circuit()
    a = c.add_input("a")
    c.buf(a)
    sim, rec = one_trace(c, settled=False)
    sim.settle([(0, a, True)], recorder=rec)
    t1 = sum(wf.n_transitions for wf in waves(sim, rec).values())
    sim.settle([(0, a, False)], recorder=rec, t_offset=1000)
    assert sum(wf.n_transitions for wf in waves(sim, rec).values()) > t1


def test_reset_state_clears_waveforms():
    """``reset_state`` forces every wire without an event: nothing is
    recorded, and a waveform read afterwards starts from the reset."""
    c = Circuit()
    a = c.add_input("a")
    c.inv(a)
    sim, rec = one_trace(c, settled=False)
    sim.settle([(0, a, True)], recorder=rec)
    n_events = len(rec.events)
    sim.reset_state()
    assert len(rec.events) == n_events
    assert not sim.values.any()
    fresh = trace_waveforms([], sim.values[:, 0])
    assert all(not wf.initial and not wf.changes for wf in fresh.values())


def test_waveform_of_by_name():
    c = Circuit()
    a = c.add_input("a")
    sim, rec = one_trace(c, settled=False)
    sim.settle([(5, a, True)], recorder=rec)
    assert waves(sim, rec)[c.wire("a")].changes == [(5, True)]


def test_event_budget_guard():
    c = Circuit()
    a = c.add_input("a")
    # ring oscillator: INV loop is a combinational loop, so build a
    # long chain instead and give a tiny budget
    w = a
    for _ in range(50):
        w = c.inv(w)
    sim, rec = one_trace(c)
    with pytest.raises(SimulationError, match="budget"):
        sim.settle([(0, a, True)], recorder=rec, max_events=5)
