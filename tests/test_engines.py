"""Tests for the full gate-level masked DES engines."""

import numpy as np
import pytest

from repro.des.bits import int_to_bitarray
from repro.des.engines import DESTraceSource, MaskedDESNetlistEngine
from repro.des.reference import des_encrypt_bits
from repro.leakage.prng import RandomnessSource

# engines are expensive to build/run: share instances across tests
_ENGINES = {}


def engine(variant, **kw):
    key = (variant, tuple(sorted(kw.items())))
    if key not in _ENGINES:
        _ENGINES[key] = MaskedDESNetlistEngine(variant, **kw)
    return _ENGINES[key]


def blocks(n, seed=0):
    rng = np.random.default_rng(seed)
    pt = int_to_bitarray(rng.integers(0, 2**63, n, dtype=np.uint64), 64)
    ky = int_to_bitarray(rng.integers(0, 2**63, n, dtype=np.uint64), 64)
    return pt, ky


@pytest.mark.parametrize("variant", ["ff", "pd"])
def test_engine_ciphertext_matches_reference(variant):
    eng = engine(variant)
    pt, ky = blocks(48)
    ct, power = eng.run_batch(pt, ky, RandomnessSource(3))
    assert np.array_equal(ct, des_encrypt_bits(pt, ky))
    assert power.shape == (48, eng.n_samples)
    assert power.sum() > 0


@pytest.mark.parametrize("variant", ["ff", "pd"])
def test_engine_correct_with_prng_off(variant):
    eng = engine(variant)
    pt, ky = blocks(32, seed=1)
    ct, _ = eng.run_batch(pt, ky, RandomnessSource(3, enabled=False), record=False)
    assert np.array_equal(ct, des_encrypt_bits(pt, ky))


def test_engine_correct_small_delayunit_with_jitter():
    """Even an order-violating build computes correct ciphertexts —
    glitches are transient; only the power leaks."""
    eng = engine("pd", n_luts=1)
    pt, ky = blocks(32, seed=2)
    ct, _ = eng.run_batch(pt, ky, RandomnessSource(5), record=False)
    assert np.array_equal(ct, des_encrypt_bits(pt, ky))


def test_engine_no_record_returns_none_power():
    eng = engine("ff")
    pt, ky = blocks(8, seed=3)
    _, power = eng.run_batch(pt, ky, RandomnessSource(0), record=False)
    assert power is None


def test_engine_invalid_variant():
    with pytest.raises(ValueError):
        MaskedDESNetlistEngine("nope")


def test_ff_engine_structure():
    eng = engine("ff")
    c = eng.circuit
    # 30 secAND2 per S-box x 8 S-boxes
    assert len(c.annotations["secand2"]) == 240
    # masked state: 64 L/R FFs per share + masked key schedule 56 x 2
    names = {g.name for g in c.ff_gates()}
    assert "L_s0_0" in names and "R_s1_31" in names and "CD_s1_55" in names
    assert eng.cycles_per_round == 7
    assert len(eng.rand_wires) == 14


def test_pd_engine_structure():
    eng = engine("pd")
    assert eng.cycles_per_round == 2
    assert len(eng.coupling_pairs) == 48  # 6 pairs x 8 S-boxes
    # all delay cells sized at the requested DelayUnit
    sizes = {
        g.params["n_luts"]
        for g in eng.circuit.gates
        if g.cell.name == "DELAY"
    }
    assert sizes == {10}


def test_engine_no_recycle_randomness():
    eng = engine("ff", recycle_randomness=False)
    assert len(eng.rand_wires) == 112
    pt, ky = blocks(16, seed=4)
    ct, _ = eng.run_batch(pt, ky, RandomnessSource(6), record=False)
    assert np.array_equal(ct, des_encrypt_bits(pt, ky))


def test_engine_deterministic_given_seeds():
    eng = engine("ff")
    pt, ky = blocks(8, seed=5)
    _, p1 = eng.run_batch(pt, ky, RandomnessSource(7))
    _, p2 = eng.run_batch(pt, ky, RandomnessSource(7))
    assert np.array_equal(p1, p2)


def test_engine_power_depends_on_masks():
    eng = engine("ff")
    pt, ky = blocks(8, seed=6)
    _, p1 = eng.run_batch(pt, ky, RandomnessSource(1))
    _, p2 = eng.run_batch(pt, ky, RandomnessSource(2))
    assert not np.array_equal(p1, p2)


def test_trace_source_verify_flag():
    eng = engine("ff")
    src = DESTraceSource(
        eng, 0x0123456789ABCDEF, 0x133457799BBCDFF1, verify=True
    )
    rng = np.random.default_rng(0)
    fixed = np.zeros(16, bool)
    fixed[:8] = True
    traces = src.acquire(fixed, rng)
    assert traces.shape == (16, eng.n_samples)


def test_trace_source_fixed_class_repeatable_stimulus():
    eng = engine("ff")
    src = DESTraceSource(eng, 0xAAAAAAAAAAAAAAAA, 0x133457799BBCDFF1)
    assert src.n_samples == eng.n_samples


def test_coupling_changes_power_only_for_pd():
    pt, ky = blocks(16, seed=7)
    pd = engine("pd")
    _, a = pd.run_batch(pt, ky, RandomnessSource(8), coupling_coefficient=0.0)
    _, b = pd.run_batch(pt, ky, RandomnessSource(8), coupling_coefficient=5.0)
    assert not np.array_equal(a, b)
    ff = engine("ff")
    _, c1 = ff.run_batch(pt, ky, RandomnessSource(8), coupling_coefficient=5.0)
    _, c2 = ff.run_batch(pt, ky, RandomnessSource(8), coupling_coefficient=0.0)
    assert np.array_equal(c1, c2)  # FF engine has no coupled delay lines


@pytest.mark.parametrize(
    "variant,pack_traces,coupling",
    [("ff", True, 0.0), ("pd", False, 5.0), ("pd", True, 5.0)],
)
def test_batch_recorder_freed_on_return(monkeypatch, variant, pack_traces, coupling):
    """A batch's recorder (and its (n, n_bins) sums) is freed by
    reference counting when run_batch returns: no reference cycle keeps
    it alive until a cyclic collection."""
    import gc
    import weakref

    from repro.sim import power

    refs = []
    init = power.PowerRecorder.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(power.PowerRecorder, "__init__", spy)
    pt, ky = blocks(64, seed=4)
    gc.disable()
    try:
        engine(variant).run_batch(
            pt, ky, RandomnessSource(2), coupling_coefficient=coupling,
            pack_traces=pack_traces,
        )
        assert len(refs) == 1
        assert refs[0]() is None
    finally:
        gc.enable()
