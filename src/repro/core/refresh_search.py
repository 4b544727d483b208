"""Greedy minimal-refresh search, factored out of ``des.selective_refresh``.

The search itself is gadget-agnostic: given a *defect function* that
measures how far a masked design's share distribution is from uniform
under an arbitrary subset of refresh positions, drop positions one at a
time and keep a drop only while the defect stays within a tolerance of
the full-refresh statistical floor.  The DES exploration
(:mod:`repro.des.selective_refresh`) and the compiler's refresh pass
(:mod:`repro.compile.refresh`) both run this exact loop — only the
defect function differs.

The defect function receives ``(mask, salt)``.  ``salt`` is a small
integer the caller folds into its RNG seed so every evaluation draws an
independent sample: ``0`` for the full-refresh floor, ``pos + 1`` for
the trial that drops position ``pos``, and ``FINAL_SALT`` for the
confirmation run on the final mask.  These values are pinned so the
factored search reproduces the historical ``des.selective_refresh``
numerics bit-for-bit.

:func:`sampled_uniformity_defect` is the one sampled-uniformity routine
both defect functions (and the certifier's uniformity audit) run on: it
evaluates a share-level model once over every unshared input, with the
samples read from raw PCG64 words and bit-packed 64 to a ``uint64``
word.  The packed samples come from a process-wide bank
(:data:`SAMPLE_BANK`), so a search that repeats a ``(seed, shape)``
already drawn in this process reuses the words instead of drawing them
again.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..sim.bitpack import LANE_BITS, n_lanes, popcount

__all__ = [
    "FINAL_SALT",
    "GreedySearchResult",
    "SAMPLE_BANK",
    "SampleBank",
    "greedy_minimize",
    "sampled_uniformity_defect",
]

#: Salt of the confirmation evaluation on the final mask (historical
#: constant from the original DES search; changing it would shift the
#: reported defect of every pinned plan).
FINAL_SALT = 99

DefectFn = Callable[[Sequence[bool], int], float]


@dataclass(frozen=True)
class GreedySearchResult:
    """Outcome of one greedy minimisation."""

    mask: Tuple[bool, ...]
    defect: float
    floor: float
    threshold: float

    @property
    def bits_used(self) -> int:
        return sum(self.mask)

    @property
    def bits_saved(self) -> int:
        return len(self.mask) - self.bits_used

    @property
    def kept(self) -> Tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.mask) if m)


def greedy_minimize(
    defect_fn: DefectFn,
    n_positions: int,
    tolerance_factor: float = 2.0,
    order: Optional[Sequence[int]] = None,
    threshold_slack: float = 1e-4,
) -> GreedySearchResult:
    """Greedily drop refresh positions while the defect stays bounded.

    Starts from the all-kept mask, measures the full-refresh floor,
    then visits positions in ``order`` (default: highest index first,
    the historical DES order — MUX selects before product terms) and
    drops each one whose removal keeps ``defect_fn`` within
    ``floor * tolerance_factor + threshold_slack``.

    This is an *empirical first-order uniformity* criterion — it bounds
    the distribution of the output shares, which is the property the
    refresh layer restores; it is not a proof of composable security
    (neither is the paper's refresh-everything baseline).
    """
    if n_positions < 0:
        raise ValueError("n_positions must be >= 0")
    mask = [True] * n_positions
    floor = float(defect_fn(mask, 0))
    threshold = floor * tolerance_factor + threshold_slack
    if order is None:
        order = range(n_positions - 1, -1, -1)
    for pos in order:
        mask[pos] = False
        defect = float(defect_fn(mask, pos + 1))
        if defect > threshold:
            mask[pos] = True
    final = float(defect_fn(mask, FINAL_SALT))
    return GreedySearchResult(
        mask=tuple(mask), defect=final, floor=floor, threshold=threshold
    )


#: ``evaluate(s0, s1, rand)`` of :func:`sampled_uniformity_defect`:
#: returns the share-0 bit groups whose joint distribution must be
#: uniform, each a sequence of ``(n_values, n_words)`` packed arrays.
GroupsFn = Callable[
    [np.ndarray, np.ndarray, np.ndarray], Iterable[Sequence[np.ndarray]]
]


def sampled_uniformity_defect(
    evaluate: GroupsFn,
    n_inputs: int,
    n_rand: int,
    n_per_input: int,
    seed: int,
) -> float:
    """Worst deviation of any share-0 bit group from uniform, over all
    ``2**n_inputs`` unshared inputs.

    For every unshared input ``v`` the model sees ``n_per_input``
    random sharings (``s1`` uniform, ``s0 = v ^ s1``) and uniform
    refresh bits.  All inputs are evaluated in one ``evaluate`` call on
    packed words: ``s0``/``s1`` are ``(n_inputs, n_values, n_words)``
    and ``rand`` is ``(n_rand, n_values, n_words)`` ``uint64``, sample
    ``i`` of input ``v`` in bit ``i % 64`` of word ``[v, i // 64]``.
    For each returned group of ``w`` bits, every joint pattern is
    counted per input with AND/NOT masks and a popcount (padding bits of
    the last word masked out); the result is the maximum of
    ``|count / n_per_input - 2**-w|``.

    The sample is read-only and may be shared with every other call of
    the same ``(seed, n_inputs + n_rand, 2**n_inputs, n_per_input)``
    (:data:`SAMPLE_BANK`): ``evaluate`` must not write into its
    arguments.

    RNG contract: the sample for input ``v`` is drawn in the order the
    per-input loop it replaces drew it — ``v = 0, 1, ...``, the share-1
    bits ``(n_inputs, n_per_input)`` then the refresh bits
    ``(n_rand, n_per_input)`` — each value exactly as
    ``integers(0, 2, ...)`` would return it, but read from the raw
    generator words (:func:`_draw_packed_samples`).  For a range of 2,
    numpy's Lemire method multiplies one 32-bit output by 2 and never
    rejects (its threshold ``(2**32 - 2) % 2`` is 0), so each value is
    the top bit of one 32-bit output; PCG64 hands out the low half of
    each 64-bit word before the high half.  The defects (and every
    pinned refresh plan) are therefore bit-identical to that loop.  A
    bank hit returns the words of the first draw, so it keeps them too.
    """
    n_values = 1 << n_inputs
    n_words = n_lanes(n_per_input)
    packed = SAMPLE_BANK.samples(seed, n_inputs + n_rand, n_values, n_per_input)
    shifts = np.arange(n_inputs - 1, -1, -1)[:, None]
    value_bits = (np.arange(n_values) >> shifts) & 1
    s1 = packed[:n_inputs]
    s0 = s1 ^ (value_bits.astype(np.uint64) * ~np.uint64(0))[..., None]
    valid = np.packbits(
        np.arange(n_words * LANE_BITS) < n_per_input, bitorder="little"
    ).view(np.uint64)

    worst = 0.0
    for group in evaluate(s0, s1, packed[n_inputs:]):
        if not len(group):
            continue
        # patterns[p] selects the samples whose group bits read p,
        # first bit most significant
        patterns = np.broadcast_to(valid, group[0].shape)[None]
        for bit in group:
            patterns = np.stack(
                [patterns & ~bit, patterns & bit], axis=1
            ).reshape((-1,) + bit.shape)
        counts = popcount(patterns).sum(axis=-1, dtype=np.int64)
        deviation = np.abs(counts / n_per_input - 1.0 / patterns.shape[0])
        worst = max(worst, float(np.max(deviation)))
    return worst


class SampleBank:
    """Packed samples of :func:`sampled_uniformity_defect`, drawn once
    per process and key.

    Keyed by ``(seed, n_rows, n_values, n_per_input)``, which fixes the
    words completely, so a hit returns exactly what a fresh draw would.
    Entries are read-only.  The bank holds at most ``max_bytes`` of
    samples and drops the oldest entry first; an entry larger than the
    bound is returned but not kept.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0

    def samples(
        self, seed: int, n_rows: int, n_values: int, n_per_input: int
    ) -> np.ndarray:
        key = (operator.index(seed), n_rows, n_values, n_per_input)
        packed = self._entries.get(key)
        if packed is not None:
            obs_metrics.inc("refresh_search.bank_hits")
            return packed
        obs_metrics.inc("refresh_search.draws")
        packed = _draw_packed_samples(
            np.random.default_rng(key[0]), n_rows, n_values, n_per_input
        )
        packed.flags.writeable = False
        self._entries[key] = packed
        self.nbytes += packed.nbytes
        while self.nbytes > self.max_bytes:
            _, old = self._entries.popitem(last=False)
            self.nbytes -= old.nbytes
        return packed


#: The process-wide bank.  4 MiB holds the 26 samples of the paper
#: suite's refresh searches (a DES greedy search is 16 samples of
#: 130 KiB, about 2.1 MiB, shared by all 8 S-boxes; PRESENT adds 10 of
#: 20 KiB); below one DES search, eviction would drop every entry
#: before the next S-box reads it.
SAMPLE_BANK = SampleBank(max_bytes=4 << 20)


#: Inputs drawn per block in :func:`_draw_packed_samples`.  Even, so
#: every block consumes whole 64-bit words; small, so no temporary grows
#: with the whole sample (blocks of all inputs cost ~5 MiB on a DES
#: S-box at 800 samples, against 0.13 MiB of packed output).
_BLOCK_INPUTS = 2


def _draw_packed_samples(
    rng: np.random.Generator, n_rows: int, n_values: int, n_per_input: int
) -> np.ndarray:
    """The ``(n_rows, n_values, n_words)`` ``uint64`` sample of
    :func:`sampled_uniformity_defect`, padding bits zero.

    Equal to packing, for ``v = 0, 1, ...``, the per-input draw
    ``rng.integers(0, 2, (n_rows, n_per_input), dtype=np.uint32)``:
    value ``j`` of that sequence is the sign bit of 32-bit output ``j``,
    i.e. of ``random_raw(...).view(np.int32)[j]`` on a little-endian
    host (low half of each word first).
    """
    n_bytes = -(-n_per_input // 8)
    packed = np.zeros(
        (n_rows, n_values, n_lanes(n_per_input) * (LANE_BITS // 8)),
        dtype=np.uint8,
    )
    bitgen = rng.bit_generator
    for start in range(0, n_values, _BLOCK_INPUTS):
        count = min(_BLOCK_INPUTS, n_values - start)
        n_draws = count * n_rows * n_per_input
        # an odd draw count only occurs in a last (single-input) block
        raw = bitgen.random_raw(-(-n_draws // 2)).view(np.int32)
        bits = raw[:n_draws] < 0
        packed[:, start : start + count, :n_bytes] = np.packbits(
            bits.reshape(count, n_rows, n_per_input), axis=-1, bitorder="little"
        ).transpose(1, 0, 2)
    return packed.view(np.uint64)
