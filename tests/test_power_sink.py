"""The recording sink's kernel, its per-schedule deposit plans and the
per-circuit static maps.

The kernel (``repro.sim.power._deposit``) is checked against the plain
reference ``target[b] += w * unpacked_bits``; the plans against the
interpreted settle, which records live rows in recording order.
"""

import numpy as np
import pytest

from repro.faults import delay_variation
from repro.netlist.circuit import Circuit, CircuitError
from repro.sim import power
from repro.sim.bitpack import n_lanes, pack_bool
from repro.sim.compiled import (
    circuit_maps,
    lookup_or_compile,
    pin_schedule_cache,
    unpin_schedule_cache,
)
from repro.sim.power import (
    CouplingModel,
    PowerRecorder,
    packed_accumulator_counters,
    reset_packed_accumulator_counters,
)
from repro.sim.vectorsim import VectorSimulator


def _reference(n_bins, bins, weights, bits):
    target = np.zeros((n_bins, bits.shape[1]), dtype=np.int64)
    for b, w, row in zip(bins, weights, bits.astype(np.int64)):
        target[b] += w * row
    return target


def _rows(rng, n_rows, n, packed, density=0.5):
    """Random toggle rows and their ``(n_rows, n)`` bits; packed rows get
    random pad bits, which the kernel must ignore."""
    bits = rng.random((n_rows, n)) < density
    if not packed:
        return bits, bits
    lanes = pack_bool(bits)
    if n % 64:
        pad = ~np.uint64(0) << np.uint64(n % 64)
        noise = rng.integers(0, 2**64, n_rows, dtype=np.uint64)
        lanes[:, -1] = (lanes[:, -1] & ~pad) | (noise & pad)
    return lanes, bits


@pytest.mark.parametrize(
    "n, packed", [(100, True), (64, True), (13, False), (16, False)]
)
@pytest.mark.parametrize("block_bytes", [None, 256])
def test_kernel_matches_reference(monkeypatch, n, packed, block_bytes):
    """Grouped and scattered rows, groups past 255 rows (dense enough
    to overflow a byte counter), several blocks and the coupling weight
    -2 all sum exactly."""
    if block_bytes is not None:
        monkeypatch.setattr(power, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(n)
    n_rows, n_bins = 1500, 7
    rows, bits = _rows(rng, n_rows, n, packed, density=0.95)
    grouped_w = np.repeat([1, -2, 3, 3, 5], n_rows // 5)  # runs of 300
    grouped_b = np.repeat([0, 2, 2, 5, 6], n_rows // 5)
    for weights, bins in (
        (grouped_w, grouped_b),
        (rng.integers(-2, 9, n_rows), rng.integers(0, n_bins, n_rows)),
    ):
        target = np.zeros((n_bins, n), dtype=np.int64)
        power._deposit(target, bins, weights.astype(np.int64), rows, np.arange(n_rows))
        assert np.array_equal(target, _reference(n_bins, bins, weights, bits))


def test_kernel_group_straddling_blocks(monkeypatch):
    """The smallest block is one 255-row run; a dense group crossing
    block boundaries is cut there and still sums exactly."""
    monkeypatch.setattr(power, "_BLOCK_BYTES", 1)
    rng = np.random.default_rng(1)
    rows, bits = _rows(rng, 600, 130, True, density=0.99)
    bins = np.zeros(600, dtype=np.intp)
    weights = np.full(600, 2, dtype=np.int64)
    target = np.zeros((1, 130), dtype=np.int64)
    power._deposit(target, bins, weights, rows, np.arange(len(bins)))
    assert np.array_equal(target, _reference(1, bins, weights, bits))


def test_kernel_gathers_xor_of_two_row_sets():
    """``rows[take] ^ rows[prev]``, as a replay hands its version rows."""
    rng = np.random.default_rng(2)
    rows, _ = _rows(rng, 50, 70, True)
    take, prev = rng.integers(0, 50, 400), rng.integers(0, 50, 400)
    bits = np.unpackbits(
        (rows[take] ^ rows[prev]).view(np.uint8), axis=1, bitorder="little"
    )[:, :70]
    bins = np.sort(rng.integers(0, 3, 400))
    weights = np.ones(400, dtype=np.int64)
    target = np.zeros((3, 70), dtype=np.int64)
    power._deposit(target, bins, weights, rows, take, prev)
    assert np.array_equal(target, _reference(3, bins, weights, bits))


@pytest.mark.parametrize("packed", [True, False])
def test_empty_input_adds_nothing(packed):
    n = 70
    rec = PowerRecorder(n, 1000, bin_ps=100, weights=np.ones(4))
    width = n_lanes(n) if packed else n
    dtype = np.uint64 if packed else bool
    empty = np.zeros((0, width), dtype=dtype)
    rec.sink.add(np.zeros(0), np.zeros(0, dtype=np.intp), empty, empty)
    assert not rec.sink.energy.any()


def test_clamped_bins_sum_into_the_last_bin():
    rng = np.random.default_rng(3)
    n, n_bins, bin_ps = 90, 4, 100
    rows, bits = _rows(rng, 600, n, True)
    times = np.sort(rng.integers(0, 800, 600)).astype(float)
    wires = rng.integers(0, 3, 600).astype(np.intp)
    w = np.array([1.0, 4.0, 2.0])
    rec = PowerRecorder(n, n_bins * bin_ps, bin_ps=bin_ps, weights=w)
    with pytest.warns(power.ClampedEventWarning):
        rec.sink.add(times, wires, rows, rows)
    bins = np.minimum(times // bin_ps, n_bins - 1).astype(np.intp)
    assert np.array_equal(
        rec.sink.energy, _reference(n_bins, bins, w[wires].astype(int), bits)
    )
    assert rec.stats["clamped_events"] == int((times >= n_bins * bin_ps).sum())


@pytest.mark.parametrize("bin_ps", [1, 3, 250, 538])
def test_bins_equal_floor_division_at_bin_edges(bin_ps):
    rec = PowerRecorder(1, 10**6, bin_ps=bin_ps)
    rng = np.random.default_rng(bin_ps)
    edges = rng.integers(1, 10**6 // bin_ps, 20_000).astype(np.float64) * bin_ps
    below = np.nextafter(edges, 0)
    times = np.concatenate([edges, below, np.nextafter(below, 0), edges * rng.random()])
    assert np.array_equal(rec.sink._bins(times), (times // bin_ps).astype(np.intp))


def test_fractional_bin_width_rejected():
    with pytest.raises(ValueError, match="positive integer"):
        PowerRecorder(1, 1000, bin_ps=2.5)


# ----------------------------------------------------------------------
# deposit plans
# ----------------------------------------------------------------------
def _chain():
    """Inputs a, b feed a small cone with reconvergent paths: a settle
    schedules updates that do not toggle in any trace."""
    c = Circuit("plan")
    a, b = c.add_input("a"), c.add_input("b")
    x = c.add_gate("AND2", [a, b])
    y = c.add_gate("OR2", [a, x])
    z = c.add_gate("XOR2", [y, c.inv(b)])
    c.delay_line(z, 2, 2)
    return c


def _settle(c, n, compiled, weights, coupling=None, window_ps=20_000, k=0):
    sim = VectorSimulator(c, n, compile_schedules=compiled, pack_traces=compiled)
    rng = np.random.default_rng(k)
    rec = PowerRecorder(
        n, window_ps, bin_ps=100, weights=weights, coupling=coupling
    )
    for step in range(3):
        events = [
            (t, c.wire(name), rng.integers(0, 2, n).astype(bool))
            for t, name in ((0, "a"), (150, "b"), (150, "a"))
        ]
        sim.settle(events, recorder=rec, t_offset=1000 * step)
    return rec


def _schedule(c):
    pattern = ((0, c.wire("a")), (150, c.wire("b")), (150, c.wire("a")))
    return lookup_or_compile(c, circuit_maps(c)[0], pattern)


def test_two_weight_vectors_on_one_schedule_get_their_own_plans():
    c = _chain()
    base = np.asarray(circuit_maps(c)[1])
    other = base * 3 + np.arange(c.n_wires) % 2
    for weights in (base, other, base):
        got = _settle(c, 70, True, weights)
        want = _settle(c, 70, False, weights)
        assert np.array_equal(got.power, want.power)
    assert len(_schedule(c).sink_plans) == 2


def test_fresh_equal_weights_reuse_one_plan():
    """Engines hand every batch's recorder a new weight array; plans are
    keyed by content, so a 50-batch loop keeps one plan."""
    c = _chain()
    for k in range(50):
        _settle(c, 64, True, np.array(circuit_maps(c)[1]), k=k)
    assert len(_schedule(c).sink_plans) == 1


def test_non_live_rows_add_nothing_and_are_not_counted():
    """The plan gathers every potential update; the ones that toggle in
    no trace add 0, and the sink counts live rows and clamps only."""
    c = _chain()
    weights = np.asarray(circuit_maps(c)[1])
    coupling = CouplingModel([(c.wire("a"), c.wire("b"))], coefficient=5.0)
    counts = {}
    for compiled in (False, True):
        reset_packed_accumulator_counters()
        with pytest.warns(power.ClampedEventWarning):
            rec = _settle(c, 3, compiled, weights, coupling, window_ps=2_500)
        counts[compiled] = (packed_accumulator_counters(), dict(rec.stats), rec.power)
    (c0, s0, p0), (c1, s1, p1) = counts[False], counts[True]
    assert c0 == c1 and s0 == s1 and np.array_equal(p0, p1)
    assert s1["clamped_events"] > 0
    potential = len(_schedule(c).upd_dst) * 3
    assert 0 < c1["calls"] and c1["rows"] < potential


# ----------------------------------------------------------------------
# per-circuit static maps
# ----------------------------------------------------------------------
def test_simulators_of_one_circuit_share_read_only_maps():
    c = _chain()
    a, b = VectorSimulator(c, 4), VectorSimulator(c, 100, pack_traces=True)
    assert a.weights is b.weights
    with pytest.raises(ValueError):
        a.weights[0] = 7


def test_structural_edits_get_fresh_maps():
    c = _chain()
    maps = circuit_maps(c)
    copy = delay_variation(c, 30.0, seed=1)
    assert circuit_maps(copy) is not maps
    assert np.array_equal(circuit_maps(copy)[1], maps[1])
    out = c.gates[-1].output
    c.add_gate("INV", [out])  # in place: a new structural token
    fresh = circuit_maps(c)
    assert fresh is not maps
    assert len(fresh[1]) == c.n_wires == len(maps[1]) + 1
    assert fresh[1][out] == maps[1][out] + 1
    assert out in fresh[0] and out not in maps[0]


def test_output_declared_after_a_simulator_exists_is_checked():
    """Declaring an output leaves the structural token alone: every new
    simulator still runs the circuit check."""
    c = _chain()
    floating = c.add_wire("floating")
    VectorSimulator(c, 4), VectorSimulator(c, 1)
    c.mark_output("f", floating)
    with pytest.raises(CircuitError, match="undriven"):
        VectorSimulator(c, 4)
    with pytest.raises(CircuitError, match="undriven"):
        VectorSimulator(c, 1)


def test_pinned_circuit_edit_does_not_reach_the_maps():
    """Pinning guards compiled schedules only: an edited, pinned circuit
    still gets fresh maps and an interpreted simulator."""
    c = _chain()
    pin_schedule_cache(c)
    try:
        c.add_gate("INV", [c.gates[-1].output])
        assert len(circuit_maps(c)[1]) == c.n_wires
        VectorSimulator(c, 1)
        VectorSimulator(c, 4, compile_schedules=False)
    finally:
        unpin_schedule_cache(c)
