"""Unit tests for the power model and the coupling extension."""

import numpy as np
import pytest

from repro.sim.power import CouplingModel, NullRecorder, PowerRecorder, default_weights


def ch(old, new):
    return np.array(old, bool), np.array(new, bool)


def test_binning():
    rec = PowerRecorder(1, total_time_ps=1000, bin_ps=250)
    assert rec.n_bins == 4
    rec.record_batch(0, {0: ch([0], [1])})
    rec.record_batch(600, {0: ch([1], [0])})
    assert rec.power[0, 0] == 1
    assert rec.power[0, 2] == 1


def test_times_beyond_range_clamp_to_last_bin():
    rec = PowerRecorder(1, 1000, bin_ps=250)
    rec.record_batch(5000, {0: ch([0], [1])})
    assert rec.power[0, -1] == 1


def test_bad_bin_rejected():
    with pytest.raises(ValueError):
        PowerRecorder(1, 1000, bin_ps=0)


def test_no_toggle_no_power():
    rec = PowerRecorder(2, 1000)
    rec.record_batch(0, {0: ch([1, 0], [1, 0])})
    assert rec.power.sum() == 0


def test_weights_scale_energy():
    w = np.array([3.0, 1.0], dtype=np.float32)
    rec = PowerRecorder(1, 1000, weights=w)
    rec.record_batch(0, {0: ch([0], [1]), 1: ch([0], [1])})
    assert rec.power[0, 0] == pytest.approx(4.0)


def test_default_weights_from_fanout():
    w = default_weights({0: [1, 2, 3], 5: [7]}, 6)
    assert w[0] == 4.0  # 1 + 3 readers
    assert w[5] == 2.0
    assert w[1] == 1.0


def test_per_trace_independence():
    rec = PowerRecorder(3, 1000)
    rec.record_batch(0, {0: ch([0, 1, 0], [1, 1, 1])})
    assert list(rec.power[:, 0]) == [1.0, 0.0, 1.0]


def test_samples_alias():
    rec = PowerRecorder(1, 1000)
    assert rec.samples() is rec.power


def test_null_recorder_noop():
    NullRecorder().record_batch(0, {0: ch([0], [1])})  # no exception


# ----------------------------------------------------------------------
# coupling
# ----------------------------------------------------------------------
def test_coupling_same_direction_reduces_energy():
    cm = CouplingModel(pairs=[(0, 1)], coefficient=0.5)
    rec = PowerRecorder(1, 1000, coupling=cm)
    rec.record_batch(0, {0: ch([0], [1]), 1: ch([0], [1])})
    # 2 toggles - 0.5 * (+1 * +1)
    assert rec.power[0, 0] == pytest.approx(1.5)


def test_coupling_opposite_direction_adds_energy():
    cm = CouplingModel(pairs=[(0, 1)], coefficient=0.5)
    rec = PowerRecorder(1, 1000, coupling=cm)
    rec.record_batch(0, {0: ch([0], [1]), 1: ch([1], [0])})
    assert rec.power[0, 0] == pytest.approx(2.5)


def test_coupling_needs_both_transitions():
    cm = CouplingModel(pairs=[(0, 1)], coefficient=0.5)
    rec = PowerRecorder(1, 1000, coupling=cm)
    rec.record_batch(0, {0: ch([0], [1])})
    assert rec.power[0, 0] == pytest.approx(1.0)


def test_coupling_within_window():
    cm = CouplingModel(pairs=[(0, 1)], coefficient=1.0, window_ps=150)
    rec = PowerRecorder(1, 1000, bin_ps=1000, coupling=cm)
    rec.record_batch(100, {0: ch([0], [1])})
    rec.record_batch(200, {1: ch([0], [1])})  # 100 ps later: couples
    assert rec.power[0, 0] == pytest.approx(2.0 - 1.0)


def test_coupling_outside_window_ignored():
    cm = CouplingModel(pairs=[(0, 1)], coefficient=1.0, window_ps=150)
    rec = PowerRecorder(1, 1000, bin_ps=1000, coupling=cm)
    rec.record_batch(100, {0: ch([0], [1])})
    rec.record_batch(500, {1: ch([0], [1])})  # 400 ps later: no coupling
    assert rec.power[0, 0] == pytest.approx(2.0)


def test_coupling_uncoupled_wires_unaffected():
    cm = CouplingModel(pairs=[(0, 1)], coefficient=1.0)
    rec = PowerRecorder(1, 1000, coupling=cm)
    rec.record_batch(0, {2: ch([0], [1]), 3: ch([0], [1])})
    assert rec.power[0, 0] == pytest.approx(2.0)


def test_coupling_partner_map():
    cm = CouplingModel(pairs=[(0, 1), (0, 2)])
    pm = cm.partner_map()
    assert sorted(pm[0]) == [1, 2]
    assert pm[1] == [0]


def test_coupling_per_trace_sign_product():
    cm = CouplingModel(pairs=[(0, 1)], coefficient=1.0)
    rec = PowerRecorder(3, 1000, coupling=cm)
    rec.record_batch(
        0,
        {
            0: ch([0, 0, 0], [1, 1, 0]),
            1: ch([0, 1, 0], [1, 0, 1]),
        },
    )
    # trace0: same dir (+1,+1): 2 - 1 = 1
    # trace1: opposite (+1,-1): 2 + 1 = 3
    # trace2: only wire1 toggles: 1 (sign product 0)
    assert list(rec.power[:, 0]) == [1.0, 3.0, 1.0]


# ----------------------------------------------------------------------
# clamp accounting (events past the recorder window)
# ----------------------------------------------------------------------
def test_clamp_warns_once_and_counts_events():
    from repro.sim.power import ClampedEventWarning

    rec = PowerRecorder(1, 1000, bin_ps=250)
    with pytest.warns(ClampedEventWarning, match="5000"):
        rec.record_batch(5000, {0: ch([0], [1])})
    # subsequent clamps on the same recorder stay silent but counted
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec.record_batch(6000, {0: ch([1], [0])})
        rec.record_wire(7000, 0, np.ones(1, bool), np.ones(1, bool))
    assert rec.stats["clamped_events"] == 3
    assert rec.power[0, -1] == 3.0


def test_in_range_events_not_counted_as_clamped():
    rec = PowerRecorder(1, 1000, bin_ps=250)
    rec.record_batch(999, {0: ch([0], [1])})
    rec.record_wire(0, 0, np.ones(1, bool), np.ones(1, bool))
    assert rec.stats["clamped_events"] == 0


# ----------------------------------------------------------------------
# the sink: one add per settle, exact integer sums
# ----------------------------------------------------------------------
def _settle_rows(rng, n, n_rows, n_wires):
    """Random time-ordered toggle rows of one settle (boolean)."""
    times = np.sort(rng.integers(0, 2600, n_rows)).astype(float)
    wires = rng.integers(0, n_wires, n_rows)
    toggled = rng.integers(0, 2, (n_rows, n)).astype(bool)
    toggled[:, 0] = True  # every row toggles in some trace
    new = rng.integers(0, 2, (n_rows, n)).astype(bool)
    return times, wires, toggled, new


def test_weights_must_be_nonnegative_integers():
    PowerRecorder(8, 1000, weights=np.array([1.0, 5.0], dtype=np.float32))
    for bad in ([1.5, 1.0], [-1.0, 1.0]):
        with pytest.raises(ValueError, match="non-negative integers"):
            PowerRecorder(8, 1000, weights=np.array(bad, dtype=np.float32))


@pytest.mark.filterwarnings("ignore::repro.sim.power.ClampedEventWarning")
def test_packed_accumulator_matches_record_wire():
    """One packed sink call == per-row boolean record_wire, bitwise,
    including ragged pad bits, weight > 1 wires, clamping and
    coupling across the rows of one call and across calls."""
    from repro.sim.bitpack import pack_bool

    rng = np.random.default_rng(0)
    n = 100  # ragged final lane
    weights = np.array([1.0, 3.0, 7.0, 2.0], dtype=np.float32)
    coupling = CouplingModel(pairs=[(0, 1), (1, 3)], coefficient=5.0)
    per_row = PowerRecorder(n, 2000, bin_ps=250, weights=weights, coupling=coupling)
    packed = PowerRecorder(n, 2000, bin_ps=250, weights=weights, coupling=coupling)
    for _ in range(3):  # times past 2000 ps clamp
        times, wires, toggled, new = _settle_rows(rng, n, 40, 4)
        for row in zip(times, wires, toggled, new):
            per_row.record_wire(*row)
        packed.sink.add(times, wires, pack_bool(toggled), pack_bool(new))
    assert per_row.stats["clamped_events"] > 0
    assert np.array_equal(packed.power, per_row.power)
    assert packed.stats == per_row.stats


def test_packed_accumulator_rejects_trace_mismatch():
    rec = PowerRecorder(8, 1000)
    with pytest.raises(ValueError):
        rec.sink.add(
            np.zeros(1), np.zeros(1, np.intp), np.ones((1, 2), np.uint64),
            np.ones((1, 2), np.uint64),
        )
    with pytest.raises(ValueError):
        rec.sink.add(
            np.zeros(1), np.zeros(1, np.intp), np.ones((1, 16), bool),
            np.ones((1, 16), bool),
        )


def test_power_read_reflects_later_adds():
    rec = PowerRecorder(4, 1000, bin_ps=250)
    rec.record_wire(0, 0, np.array([1, 0, 1, 0], bool), np.ones(4, bool))
    assert rec.power[0, 0] == 1.0
    assert rec.samples()[2, 0] == 1.0
    rec.record_wire(10, 0, np.array([1, 0, 0, 0], bool), np.zeros(4, bool))
    assert rec.power[0, 0] == 2.0  # the cached float32 matrix is refreshed
    assert rec.power.dtype == np.float32


def test_large_bin_sums_stay_exact():
    """Energy is summed in int64 and rounded to float32 once: a bin at
    2^24 + 1 reads as its correctly rounded float32 value, without the
    drift of per-event float32 accumulation."""
    w = np.array([float(2**23), 1.0], dtype=np.float32)
    rec = PowerRecorder(1, 1000, bin_ps=1000, weights=w)
    one = np.ones(1, bool)
    for wire in (0, 0, 1):
        rec.record_wire(0, wire, one, one)
    assert rec.sink.energy[0, 0] == 2**24 + 1
    assert rec.power[0, 0] == np.float32(2**24 + 1)


def test_coupling_rounds_once():
    """A non-dyadic coefficient is applied to the exact sums and rounded
    once: the result is the correctly rounded E - c * S."""
    cm = CouplingModel(pairs=[(0, 1)], coefficient=0.05)
    rec = PowerRecorder(1, 1000, bin_ps=1000, coupling=cm)
    up = np.ones(1, bool)
    for k in range(7):
        rec.record_wire(10 * k, k % 2, up, up)
    c = float(np.float32(0.05))
    assert rec.sink.coupling_sum[0, 0] == 6
    assert rec.power[0, 0] == np.float32(7 - 6 * c)


@pytest.mark.filterwarnings("ignore::repro.sim.power.ClampedEventWarning")
def test_packed_accumulator_counters_telemetry():
    from repro.sim.power import (
        packed_accumulator_counters,
        reset_packed_accumulator_counters,
    )

    reset_packed_accumulator_counters()
    rec = PowerRecorder(4, 1000, bin_ps=250)
    times, wires, toggled, new = _settle_rows(np.random.default_rng(1), 4, 5, 2)
    rec.sink.add(times, wires, toggled, new)
    rec.record_wire(0, 0, np.ones(4, bool), np.ones(4, bool))
    assert packed_accumulator_counters() == {"calls": 2, "rows": 6}
