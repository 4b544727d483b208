"""Share-level golden model of a lowered plan.

:class:`PlanModel` evaluates the exact dataflow the emitter builds —
same chain factorisation, same refresh positions, same select-minterm
trees, same stage-2 products — using :func:`repro.core.gadgets.secand2_func`
as the algebraic gadget model (the role
:class:`repro.des.masked_core.MaskedSboxModel` plays for the hand-built
DES engines).  It serves two jobs:

* the *functional oracle* the certifier compares emitted netlists
  against, share-for-share;
* the sampling backend of the refresh pass's uniformity search
  (:func:`uniformity_defect`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.gadgets import secand2_func
from ..core.refresh_search import sampled_uniformity_defect
from .lower import LoweredPlan

__all__ = ["PlanModel", "uniformity_defect"]

Share = Tuple[np.ndarray, np.ndarray]


class PlanModel:
    """Evaluate a lowered plan on share arrays.

    ``refresh_mask`` selects which refresh *positions* (see
    :func:`repro.compile.refresh.refresh_positions`) actually consume
    their random bit; unrefreshed positions pass their shares through
    raw, exactly like the emitted netlist.
    """

    def __init__(self, plan: LoweredPlan):
        self.plan = plan
        from .refresh import refresh_positions

        self.positions = refresh_positions(plan)
        self.n_rand = len(self.positions)
        self._pos_index = {p.key: i for i, p in enumerate(self.positions)}

    # ------------------------------------------------------------------
    def __call__(
        self,
        s0: np.ndarray,
        s1: np.ndarray,
        rand: np.ndarray,
        refresh_mask: Optional[Sequence[bool]] = None,
        expose_intermediates: bool = False,
    ):
        """Evaluate on ``(n_inputs, N)`` share arrays.

        ``N`` may be any trailing shape and the arrays boolean or packed
        ``uint64`` words; every op is bitwise, so outputs take the
        inputs' dtype and shape.  ``rand`` has one ``(N,)`` row per
        refresh position (rows of dropped positions are ignored).
        Returns ``(o0, o1)`` arrays of shape ``(n_outputs, N)``; with
        ``expose_intermediates`` also the per-row share-0 bit arrays and
        the select share-0 bits — the intermediate distributions the
        uniformity search audits.
        """
        plan = self.plan
        spec = plan.spec
        if refresh_mask is None:
            refresh_mask = [True] * self.n_rand

        def refreshed(kind: str, key, pair: Share) -> Share:
            idx = self._pos_index[(kind, key)]
            if not refresh_mask[idx]:
                return pair
            m = rand[idx]
            return (pair[0] ^ m, pair[1] ^ m)

        mid = [
            (s0[plan.inner_vars[p]], s1[plan.inner_vars[p]])
            for p in range(plan.n_inner)
        ]

        # product chains in monomial order; like the emitter, chain
        # links consume the *refreshed* prefix product.
        term: Dict[int, Share] = {}
        for mask in plan.monomials:
            prefix, extra = plan.factor(mask)
            if prefix in term:
                x = term[prefix]
            else:
                x = mid[plan.mask_positions(prefix)[0]]
            raw = secand2_func(*x, *mid[extra])
            term[mask] = refreshed("prod", mask, raw)

        # per-row XOR planes
        rows_out: List[List[Share]] = []
        for row in plan.rows:
            bits: List[Share] = []
            for b in range(spec.n_outputs):
                if row.bit_is_constant(b):
                    bits.append(None)  # handled by the MUX stage
                    continue
                acc0 = np.zeros_like(s0[0])
                acc1 = np.zeros_like(s0[0])
                for p in row.linear[b]:
                    acc0 = acc0 ^ mid[p][0]
                    acc1 = acc1 ^ mid[p][1]
                for mask in row.products[b]:
                    acc0 = acc0 ^ term[mask][0]
                    acc1 = acc1 ^ term[mask][1]
                if row.constants[b]:
                    acc0 = ~acc0
                bits.append((acc0, acc1))
            rows_out.append(bits)

        if plan.n_select == 0:
            out = rows_out[0]
            o0 = np.stack([p[0] for p in out])
            o1 = np.stack([p[1] for p in out])
            if expose_intermediates:
                return o0, o1, rows_out, None
            return o0, o1

        # select minterm chains over the outer literals
        outer = [
            (s0[plan.select_vars[p]], s1[plan.select_vars[p]])
            for p in range(plan.n_select)
        ]

        def literal(p: int, v: int) -> Share:
            a0, a1 = outer[p]
            return (a0 if v else ~a0, a1)

        # minterm v over literals 0..p ANDs minterm v >> 1 over
        # literals 0..p-1 with literal (p, v & 1)
        minterms = [literal(0, 0), literal(0, 1)]
        for p in range(1, plan.n_select):
            minterms = [
                secand2_func(*minterms[v >> 1], *literal(p, v & 1))
                for v in range(2 << p)
            ]
        sels = [refreshed("sel", r, minterms[r]) for r in range(plan.n_rows)]

        # stage 2: sel AND row-bit, XOR across rows
        o0 = np.zeros((spec.n_outputs,) + s0.shape[1:], dtype=s0.dtype)
        o1 = np.zeros_like(o0)
        for r, row in enumerate(plan.rows):
            for b in range(spec.n_outputs):
                if row.bit_is_constant(b):
                    if row.constants[b]:
                        t = sels[r]
                    else:
                        continue
                else:
                    t = secand2_func(*sels[r], *rows_out[r][b])
                o0[b] ^= t[0]
                o1[b] ^= t[1]

        if expose_intermediates:
            return o0, o1, rows_out, sels
        return o0, o1

    # ------------------------------------------------------------------
    def check_functional(self, n: Optional[int] = None, seed: int = 0) -> bool:
        """Model recombines to the spec table on every input (sanity)."""
        spec = self.plan.spec
        size = 1 << spec.n_inputs
        rng = np.random.default_rng(seed)
        idx = np.arange(size, dtype=np.int64)
        bits = np.stack(
            [
                ((idx >> (spec.n_inputs - 1 - i)) & 1).astype(bool)
                for i in range(spec.n_inputs)
            ]
        )
        s1 = rng.integers(0, 2, bits.shape).astype(bool)
        rand = rng.integers(0, 2, (max(1, self.n_rand), size)).astype(bool)
        o0, o1 = self(bits ^ s1, s1, rand)
        got = np.zeros(size, dtype=np.int64)
        for b in range(spec.n_outputs):
            got |= (o0[b] ^ o1[b]).astype(np.int64) << (
                spec.n_outputs - 1 - b
            )
        return bool(np.array_equal(got, np.asarray(spec.table)))


def uniformity_defect(
    model: PlanModel,
    refresh_mask: Sequence[bool],
    n_per_input: int = 2000,
    seed: int = 0,
) -> float:
    """Worst deviation of the share-0 output distribution from uniform.

    The generic analogue of
    :func:`repro.des.selective_refresh.uniformity_defect`: for every
    unshared input, the joint distribution of the share-0 output bits —
    and of every row's share-0 bits, which feed the MUX stage — must be
    uniform.  Returns the maximum absolute deviation from the uniform
    probability across all of them, sampled by
    :func:`repro.core.refresh_search.sampled_uniformity_defect`.
    """

    def groups(s0, s1, rand):
        o0, _, rows_out, _ = model(
            s0, s1, rand, refresh_mask=refresh_mask, expose_intermediates=True
        )
        return [list(o0)] + [
            [p[0] for p in bits_r if p is not None] for bits_r in rows_out
        ]

    n_inputs = model.plan.spec.n_inputs
    return sampled_uniformity_defect(
        groups, n_inputs, max(1, model.n_rand), n_per_input, seed
    )
