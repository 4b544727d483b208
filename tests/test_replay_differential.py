"""Differential test: levelised replay against the interpreted settle.

The interpreted event loop (``compile_schedules=False``, boolean rows)
is the oracle.  Compiled replay, on boolean rows and on packed ``uint64``
lanes, must agree with it bitwise on random small circuits: wire values,
``events_processed``, settle times, recorded power (with and without
coupling) and, when the event budget runs out, every field of the
:class:`SimulationError`.

The stimuli are chosen to hit the scheduler's corner cases: several
updates at one instant, repeated events on one wire (including two at
the same instant, where the last write wins), events on internal wires,
and inconsistent initial states in which wires disagree with their
drivers.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netlist.circuit import Circuit
from repro.sim.bitpack import pack_bool
from repro.sim.power import CouplingModel, PowerRecorder
from repro.sim.vectorsim import SimulationError, VectorSimulator

_TWO_INPUT = ["AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2", "ANDN2", "ORN2"]


@st.composite
def circuits(draw):
    c = Circuit("diff")
    if draw(st.booleans()):
        c.enable_routing_jitter(
            draw(st.integers(0, 99)), gate_sigma_ps=60.0, delay_sigma_ps=150.0
        )
    wires = [c.add_input(f"i{k}") for k in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(1, 14))):
        pick = st.sampled_from(wires)
        kind = draw(st.integers(0, 9))
        if kind == 0:
            wires.append(c.inv(draw(pick)))
        elif kind == 1:
            wires.append(c.buf(draw(pick)))
        elif kind == 2:
            wires.append(c.mux2(draw(pick), draw(pick), draw(pick)))
        elif kind == 3:
            wires.append(c.delay_line(draw(pick), draw(st.integers(1, 2)), 2))
        else:
            cell = draw(st.sampled_from(_TWO_INPUT))
            wires.append(c.add_gate(cell, [draw(pick), draw(pick)]))
    c.check()
    return c


@st.composite
def scenarios(draw):
    c = draw(circuits())
    n = draw(st.sampled_from([1, 5, 63, 65, 130]))
    seed = draw(st.integers(0, 2**32 - 1))
    inputs = [w for w in range(c.n_wires) if c.driver_of(w) is None]
    targets = st.sampled_from(
        inputs if draw(st.booleans()) else list(range(c.n_wires))
    )
    # one list of (time, wire) per settle; few distinct times, so
    # instants carry several updates and wires repeat
    patterns = draw(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from([0, 0, 200, 450]), targets),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=3,
        )
    )
    coefficient = draw(st.sampled_from([None, 5.0, 0.25, 0.05]))
    max_events = draw(st.sampled_from([3, 40, 10_000]))
    return c, n, seed, patterns, coefficient, max_events


def _run(c, n, seed, patterns, coefficient, max_events, compiled, packed):
    rng = np.random.default_rng(seed)
    sim = VectorSimulator(c, n, compile_schedules=compiled, pack_traces=packed)
    # inconsistent initial state: every wire random, drivers ignored
    state = rng.integers(0, 2, (c.n_wires, n)).astype(bool)
    sim.values[:] = pack_bool(state) if packed else state
    coupling = None
    if coefficient is not None:
        pairs = [(w, w + 1) for w in range(0, c.n_wires - 1, 2)]
        coupling = CouplingModel(pairs, coefficient=coefficient, window_ps=300)
    rec = PowerRecorder(
        n, 20_000, bin_ps=100, weights=sim.weights, coupling=coupling
    )
    outcome = []
    for k, pattern in enumerate(patterns):
        events = [
            (t, wire, rng.integers(0, 2, n).astype(bool)) for t, wire in pattern
        ]
        try:
            t_settle = sim.settle(
                events, recorder=rec, t_offset=1000 * k, max_events=max_events
            )
        except SimulationError as exc:
            # the two engines leave different partial state behind; only
            # the error itself is compared
            outcome.append(("error", exc.time_ps, exc.budget, exc.wires, str(exc)))
            return outcome
        wires = np.stack([sim.wire_values(w) for w in range(c.n_wires)])
        outcome.append((t_settle, sim.events_processed, wires))
    outcome.append(rec.power)
    return outcome


def _assert_same(oracle, got):
    assert len(oracle) == len(got)
    for a, b in zip(oracle, got):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
            continue
        assert a[:2] == b[:2]
        if a[0] == "error":
            assert a == b
        else:
            assert np.array_equal(a[2], b[2])


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_replay_matches_interpreter(scenario):
    oracle = _run(*scenario, compiled=False, packed=False)
    for packed in (False, True):
        _assert_same(oracle, _run(*scenario, compiled=True, packed=packed))


@pytest.mark.parametrize("n", [1, 63, 65, 130])
def test_ragged_batches_with_coupling(n):
    """Fixed regression examples over the required ragged batch sizes and
    coupling strengths, independent of hypothesis' draw."""
    c = Circuit("ragged")
    a, b, s = c.add_input("a"), c.add_input("b"), c.add_input("s")
    x = c.xor2(a, b)
    m = c.mux2(s, x, c.inv(a))
    c.and2(c.delay_line(m, 1, 2), c.nand2(x, m))
    c.check()
    patterns = [
        [(0, a), (0, b), (0, a), (200, s), (200, b)],
        [(0, s), (450, a), (450, a)],
    ]
    for coefficient in (5.0, 0.25, 0.05):
        scenario = (c, n, n + 7, patterns, coefficient, 10_000)
        oracle = _run(*scenario, compiled=False, packed=False)
        for packed in (False, True):
            _assert_same(oracle, _run(*scenario, compiled=True, packed=packed))
