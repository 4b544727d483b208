"""Selective refresh — the paper's Sec. IV-A future-work optimisation.

The reference design refreshes all ten product terms of an S-box (plus
the four MUX select products) with fresh randomness before the XOR
plane.  The paper notes: *"It is possible to further optimize the
refresh step by selectively refreshing only some of the ten terms
instead of refreshing all of them while maintaining uniformity, but we
leave this optimization for future work."*

This module implements that exploration: it measures the *uniformity
defect* of the masked S-box output shares under an arbitrary subset of
refresh positions, and greedily searches for a minimal subset that
keeps the output-share distribution independent of the unshared input.

The criterion: for every unshared 6-bit input, the distribution of the
4-bit share-0 output nibble must be uniform over 16 values (the
share-1 nibble is then automatically balanced as well since the
recombination is fixed).  This is the empirical version of the
uniformity the refresh layer is there to restore.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..core.refresh_search import greedy_minimize, sampled_uniformity_defect
from .masked_core import SBOX_RANDOM_BITS, MaskedSboxModel

__all__ = [
    "uniformity_defect",
    "RefreshPlan",
    "greedy_minimal_refresh",
    "refresh_bits_used",
]


def uniformity_defect(
    sbox: int,
    refresh_mask: Sequence[bool],
    n_per_input: int = 4000,
    seed: int = 0,
) -> float:
    """Worst deviation of P(output share-0 nibble | input) from uniform.

    Returns the maximum over all 64 unshared inputs of
    ``max_v |P(nibble = v) - 1/16|`` — for the final output nibble and
    every mini-S-box output nibble, which feed the MUX AND stage and
    the XOR plane; a secure refresh plan keeps this at the
    statistical-noise floor (~sqrt(1/16 * 15/16 / n)).  Sampled by
    :func:`repro.core.refresh_search.sampled_uniformity_defect`.
    """
    model = MaskedSboxModel(sbox)
    mask = list(refresh_mask)

    def groups(s0, s1, rand14):
        o0, _, rows_out, _ = model(
            s0, s1, rand14, refresh_mask=mask, expose_intermediates=True
        )
        return [list(o0)] + [[bit[0] for bit in row] for row in rows_out]

    return sampled_uniformity_defect(
        groups, 6, SBOX_RANDOM_BITS, n_per_input, seed
    )


@dataclass(frozen=True)
class RefreshPlan:
    """Result of the minimal-refresh search for one S-box."""

    sbox: int
    mask: Tuple[bool, ...]
    defect: float
    baseline_defect: float

    @property
    def bits_used(self) -> int:
        return sum(self.mask)

    @property
    def bits_saved(self) -> int:
        return len(self.mask) - self.bits_used

    def row(self) -> str:
        kept = [i for i, m in enumerate(self.mask) if m]
        return (
            f"S-box {self.sbox}: {self.bits_used}/14 refresh bits "
            f"(saved {self.bits_saved}); defect {self.defect:.4f} "
            f"(full-refresh floor {self.baseline_defect:.4f}); kept {kept}"
        )


def greedy_minimal_refresh(
    sbox: int,
    n_per_input: int = 4000,
    tolerance_factor: float = 2.0,
    seed: int = 0,
) -> RefreshPlan:
    """Greedily drop refresh positions while uniformity holds.

    A candidate position is dropped if the uniformity defect stays
    within ``tolerance_factor`` of the full-refresh statistical floor.
    Greedy order: MUX select refreshes first (they sit behind another
    secAND2 layer), then product refreshes from the highest monomial.

    The loop itself is the generic
    :func:`repro.core.refresh_search.greedy_minimize`; this wrapper
    binds it to the DES :func:`uniformity_defect` with the historical
    seed schedule (floor at ``seed``, trial for position ``pos`` at
    ``seed + pos + 1``, confirmation at ``seed + 99``), so results are
    bit-identical to the original in-module search.

    Note: this is an *empirical first-order uniformity* criterion — it
    bounds the distribution of the output shares, which is the property
    the refresh layer restores; it is not a proof of composable
    security (neither is the paper's full refresh).
    """
    result = greedy_minimize(
        lambda mask, salt: uniformity_defect(
            sbox, mask, n_per_input, seed + salt
        ),
        n_positions=14,
        tolerance_factor=tolerance_factor,
    )
    return RefreshPlan(
        sbox=sbox,
        mask=result.mask,
        defect=result.defect,
        baseline_defect=result.floor,
    )


def refresh_bits_used(plans: Sequence[RefreshPlan]) -> int:
    """Randomness per round if each S-box uses its own minimal plan
    (without the paper's cross-S-box recycling)."""
    return sum(p.bits_used for p in plans)
