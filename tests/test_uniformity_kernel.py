"""Differential tests of the packed sampled-uniformity kernel.

:func:`repro.core.refresh_search.sampled_uniformity_defect` evaluates a
share-level model once over every unshared input on bit-packed lanes.
The per-input loops it replaced are kept here, and only here, as the
oracle: both defect functions — the compiler's
:func:`repro.compile.model.uniformity_defect` and the DES explorer's
:func:`repro.des.selective_refresh.uniformity_defect` — must return the
oracle's float exactly, for every target, for the all-kept, all-dropped
and greedy-found masks, over several seeds and sample counts that are
not multiples of 64 (so the padding bits of the last word are masked).
The pinned plans below are the refresh search's outputs from before the
kernel existed; they must not move.  The kernel reads its sample bits
from raw PCG64 words; the historical per-input ``integers(0, 2, ...)``
draw is the oracle of that too, and the draw stays in bounded blocks.
The samples come from a process-wide bank: a warm bank must give the
cold bank's floats, its entries must be read-only, and it must stay
within its byte bound.
"""

import tracemalloc

import numpy as np
import pytest

from repro.compile import des_sbox_spec, present_sbox_spec
from repro.compile.lower import lower
from repro.compile.model import PlanModel
from repro.compile.model import uniformity_defect as plan_defect
from repro.compile.refresh import plan_refresh
from repro.core import refresh_search
from repro.core.refresh_search import (
    SAMPLE_BANK,
    SampleBank,
    _draw_packed_samples,
    sampled_uniformity_defect,
)
from repro.des.bits import int_to_bitarray
from repro.des.masked_core import MaskedSboxModel
from repro.des.selective_refresh import greedy_minimal_refresh
from repro.des.selective_refresh import uniformity_defect as des_defect
from repro.sim.bitpack import LANE_BITS, n_lanes

SAMPLE_COUNTS = (100, 800, 1500)
SEEDS = (0, 5)


# ----------------------------------------------------------------------
# oracles: the historical per-input loops
# ----------------------------------------------------------------------
def _group_defect(bit_arrays):
    width = len(bit_arrays)
    word = np.zeros(bit_arrays[0].shape[0], dtype=np.int64)
    for a in bit_arrays:
        word = (word << 1) | a.astype(np.int64)
    counts = np.bincount(word, minlength=1 << width) / word.shape[0]
    return float(np.max(np.abs(counts - 1.0 / (1 << width))))


def legacy_plan_defect(model, refresh_mask, n_per_input, seed):
    spec = model.plan.spec
    rng = np.random.default_rng(seed)
    worst = 0.0
    for value in range(1 << spec.n_inputs):
        bits = np.stack(
            [
                np.full(
                    n_per_input,
                    bool((value >> (spec.n_inputs - 1 - i)) & 1),
                )
                for i in range(spec.n_inputs)
            ]
        )
        s1 = rng.integers(0, 2, bits.shape).astype(bool)
        rand = rng.integers(
            0, 2, (max(1, model.n_rand), n_per_input)
        ).astype(bool)
        o0, _, rows_out, _ = model(
            bits ^ s1, s1, rand, refresh_mask=refresh_mask,
            expose_intermediates=True,
        )
        worst = max(
            worst, _group_defect([o0[b] for b in range(spec.n_outputs)])
        )
        for bits_r in rows_out:
            present = [p[0] for p in bits_r if p is not None]
            if present:
                worst = max(worst, _group_defect(present))
    return worst


def legacy_des_defect(sbox, refresh_mask, n_per_input, seed):
    model = MaskedSboxModel(sbox)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for value in range(64):
        bits = int_to_bitarray(np.uint64(value), 6, n_per_input)
        share1 = rng.integers(0, 2, (6, n_per_input)).astype(bool)
        rand14 = rng.integers(0, 2, (14, n_per_input)).astype(bool)
        o0, _, rows_out, _ = model(
            bits ^ share1, share1, rand14, refresh_mask=list(refresh_mask),
            expose_intermediates=True,
        )
        worst = max(worst, _group_defect([o0[b] for b in range(4)]))
        for row in rows_out:
            worst = max(worst, _group_defect([row[b][0] for b in range(4)]))
    return worst


# ----------------------------------------------------------------------
# compiler defect == oracle
# ----------------------------------------------------------------------
PLAN_TARGETS = [(f"des{i}", des_sbox_spec(i)) for i in range(8)] + [
    ("present", present_sbox_spec())
]


@pytest.fixture(scope="module")
def plans():
    return {name: lower(spec) for name, spec in PLAN_TARGETS}


@pytest.mark.parametrize("name", [name for name, _ in PLAN_TARGETS])
def test_plan_defect_matches_per_input_loop(plans, name):
    plan = plans[name]
    model = PlanModel(plan)
    greedy = plan_refresh(plan, mode="selective").mask
    masks = [(True,) * model.n_rand, (False,) * model.n_rand, greedy]
    for mask in masks:
        for seed in SEEDS:
            for n in SAMPLE_COUNTS:
                assert plan_defect(model, mask, n, seed) == legacy_plan_defect(
                    model, mask, n, seed
                ), (name, mask, seed, n)


#: Selective refresh plans of the paper targets (``plan_refresh`` at its
#: defaults), pinned from the per-input search: mask, then the float hex
#: of the confirmation defect and of the full-refresh floor.
PINNED_PLANS = {
    "des0": ("01110000000000", "0x1.d70a3d70a3d70p-6", "0x1.51eb851eb851ep-5"),
    "des1": ("10010100000000", "0x1.28f5c28f5c290p-5", "0x1.eb851eb851eb8p-6"),
    "des2": ("01100000000000", "0x1.28f5c28f5c290p-5", "0x1.0000000000000p-5"),
    "des3": ("00000000000100", "0x1.a8f5c28f5c290p-4", "0x1.51eb851eb851ep-4"),
    "des4": ("10000100000000", "0x1.147ae147ae148p-5", "0x1.0000000000000p-5"),
    "des5": ("10001100000000", "0x1.0000000000000p-5", "0x1.0000000000000p-5"),
    "des6": ("00001001000000", "0x1.147ae147ae148p-5", "0x1.51eb851eb851ep-5"),
    "des7": ("10001100000000", "0x1.0a3d70a3d70a4p-5", "0x1.147ae147ae148p-5"),
    "present": ("10000000", "0x1.999999999999ap-6", "0x1.9999999999998p-6"),
}


@pytest.mark.parametrize("name", sorted(PINNED_PLANS))
def test_selective_plans_pinned(plans, name):
    choice = plan_refresh(plans[name], mode="selective")
    mask, defect, floor = PINNED_PLANS[name]
    assert "".join("1" if m else "0" for m in choice.mask) == mask
    assert choice.search.defect == float.fromhex(defect)
    assert choice.search.floor == float.fromhex(floor)


# ----------------------------------------------------------------------
# DES explorer defect == oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sbox", range(8))
def test_des_defect_matches_per_input_loop(sbox):
    greedy = greedy_minimal_refresh(sbox, n_per_input=800, seed=sbox).mask
    for mask in ((True,) * 14, (False,) * 14, greedy):
        for seed in SEEDS:
            for n in SAMPLE_COUNTS:
                assert des_defect(sbox, mask, n, seed) == legacy_des_defect(
                    sbox, mask, n, seed
                ), (sbox, mask, seed, n)


# ----------------------------------------------------------------------
# the kernel itself
# ----------------------------------------------------------------------
def legacy_packed_samples(seed, n_rows, n_values, n_per_input):
    """Pack the historical per-input draws, padding bits zero."""
    rng = np.random.default_rng(seed)
    drawn = np.zeros(
        (n_rows, n_values, n_lanes(n_per_input) * LANE_BITS), dtype=bool
    )
    for value in range(n_values):
        drawn[:, value, :n_per_input] = rng.integers(
            0, 2, (n_rows, n_per_input), dtype=np.uint32
        )
    return np.packbits(drawn, axis=-1, bitorder="little").view(np.uint64)


@pytest.mark.parametrize("n_per_input", (1, 63, 64, 65, 800))
@pytest.mark.parametrize(
    "n_inputs, n_rows",
    # (0, 7) draws an odd 7 x 63 values: the last 32-bit output is the
    # low half of a word whose high half is never used
    [(0, 7), (0, 1), (1, 3), (3, 5), (6, 20)],
)
@pytest.mark.parametrize("seed", (0, 1, 99))
def test_raw_word_draw_matches_bounded_integers(
    seed, n_inputs, n_rows, n_per_input
):
    n_values = 1 << n_inputs
    got = _draw_packed_samples(
        np.random.default_rng(seed), n_rows, n_values, n_per_input
    )
    want = legacy_packed_samples(seed, n_rows, n_values, n_per_input)
    assert got.dtype == np.uint64
    assert got.shape == want.shape == (
        n_rows, n_values, n_lanes(n_per_input)
    )
    assert np.array_equal(got, want)


def test_des_shaped_defect_peak_memory_stays_bounded():
    # one DES-shaped call (6 inputs, 14 refresh bits, 800 samples each):
    # the per-input bool staging array peaked at 1.15 MiB, and drawing
    # the whole sample's raw words at once costs ~5 MiB more; the
    # blocked draw must stay under the former
    model = PlanModel(lower(des_sbox_spec(0)))
    mask = (True,) * model.n_rand
    plan_defect(model, mask, 800, 0)  # warm caches outside the window
    SAMPLE_BANK.clear()  # but draw inside it: a banked sample costs nothing
    tracemalloc.start()
    try:
        plan_defect(model, mask, 800, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * 2**20, peak / 2**20


def test_kernel_layout_and_padding_mask():
    # a model that exposes its raw inputs: s0 ^ s1 must be the unshared
    # input and every group sample must be counted exactly once
    seen = {}

    def identity(s0, s1, rand):
        seen["shapes"] = (s0.shape, s1.shape, rand.shape, s0.dtype)
        seen["value"] = s0 ^ s1
        return [list(s1), [rand[0]], []]

    n = 100
    defect = sampled_uniformity_defect(identity, 3, 1, n, seed=4)
    assert seen["shapes"] == ((3, 8, 2), (3, 8, 2), (1, 8, 2), np.uint64)
    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    for i in range(3):
        for v in range(8):
            bit = (v >> (2 - i)) & 1
            assert np.all(seen["value"][i, v] == (ones if bit else 0))
    # the s1 group is uniform noise, so the defect sits at sampling
    # noise, far below a constant group's 7/8
    assert 0.0 < defect < 0.2
    constant = sampled_uniformity_defect(
        lambda s0, s1, rand: [[s0[0] ^ s1[0]]], 1, 1, n, seed=4
    )
    assert constant == 0.5


# ----------------------------------------------------------------------
# the sample bank
# ----------------------------------------------------------------------
@pytest.fixture
def draws(monkeypatch):
    """Keys drawn from the generator (bank misses) during the test."""
    drawn = []

    def counting(rng, n_rows, n_values, n_per_input):
        drawn.append((n_rows, n_values, n_per_input))
        return _draw_packed_samples(rng, n_rows, n_values, n_per_input)

    monkeypatch.setattr(refresh_search, "_draw_packed_samples", counting)
    return drawn


@pytest.mark.parametrize("name", [name for name, _ in PLAN_TARGETS])
def test_warm_bank_gives_cold_bank_defects(plans, name, draws):
    plan = plans[name]
    model = PlanModel(plan)

    def defects():
        choice = plan_refresh(plan, mode="selective")
        return [choice.mask, choice.search.defect, choice.search.floor] + [
            plan_defect(model, mask, n, seed)
            for mask in ((True,) * model.n_rand, choice.mask)
            for seed in SEEDS
            for n in SAMPLE_COUNTS
        ]

    SAMPLE_BANK.clear()
    cold = defects()
    n_cold = len(draws)
    assert n_cold > 0
    assert defects() == cold
    assert len(draws) == n_cold  # the warm pass drew nothing


def test_banked_sample_is_read_only():
    def writes_s1(s0, s1, rand):
        s1[0] ^= s1[0]
        return []

    SAMPLE_BANK.clear()
    for _ in range(2):  # cold, then warm
        with pytest.raises(ValueError, match="read-only"):
            sampled_uniformity_defect(writes_s1, 3, 1, 100, seed=4)
    # the failed writes left the banked words intact
    want = legacy_packed_samples(4, 4, 8, 100)
    assert np.array_equal(SAMPLE_BANK.samples(4, 4, 8, 100), want)


def test_bank_eviction_keeps_within_bound(draws):
    entry = n_lanes(100) * 8 * 4 * 8  # (4 rows, 8 values, 2 words) uint64
    bank = SampleBank(max_bytes=3 * entry)
    for seed in range(5):
        bank.samples(seed, 4, 8, 100)
        assert bank.nbytes <= bank.max_bytes
    assert len(bank) == 3 and bank.nbytes == 3 * entry
    # oldest out first: seeds 2-4 are kept, seed 0 draws again
    del draws[:]
    bank.samples(4, 4, 8, 100)
    assert draws == []
    bank.samples(0, 4, 8, 100)
    assert len(draws) == 1 and len(bank) == 3
    # an entry larger than the bound is returned but not kept
    big = bank.samples(0, 40, 8, 100)
    assert big.shape == (40, 8, 2)
    assert len(bank) == 0 and bank.nbytes == 0


def test_bank_bound_holds_one_des_search():
    # a DES greedy search draws 16 samples of (6 + 14) rows x 64 inputs
    # at 800 samples each; all 8 S-boxes reuse them
    des_entry = 20 * 64 * n_lanes(800) * 8
    assert SAMPLE_BANK.max_bytes >= 16 * des_entry
