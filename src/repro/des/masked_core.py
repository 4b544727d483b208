"""Cycle-accurate *share-level* masked DES model.

This is the architectural golden model of the paper's two protected DES
engines (Sec. IV): it computes exactly the share values the gate-level
netlists produce — every secAND2 evaluated through its Eq. 2 algebra,
every refresh with the same randomness layout — but without gate
timing.  It serves three purposes:

* functional verification: masked ciphertext must equal reference DES;
* cost accounting: cycle counts and randomness budget per Table III;
* a fast oracle for the netlist tests (share-for-share comparison).

Randomness layout per round (Sec. VI-A): 14 fresh bits — 10 refresh the
mini-S-box product terms and 4 refresh the MUX select products; the
reference design *recycles* the same 14 bits across all eight S-boxes
(the paper verified this does not affect first-order security), so the
engine consumes 14 bits/round (112 if recycling is disabled).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.gadgets import secand2_func
from ..leakage.prng import RandomnessSource
from .bits import permute_rows
from .keyschedule import masked_round_keys_bits
from .sbox_anf import decompose_sbox
from .tables import E, FP, IP, N_ROUNDS, P

__all__ = ["MaskedDES", "MaskedSboxModel", "SBOX_RANDOM_BITS"]

#: Fresh bits per S-box evaluation: 10 product refreshes + 4 select
#: product refreshes.
SBOX_RANDOM_BITS = 14

_ShareVec = Tuple[np.ndarray, np.ndarray]


def _mand(x: _ShareVec, y: _ShareVec) -> _ShareVec:
    """Masked AND through the secAND2 algebra (Eq. 2)."""
    z0, z1 = secand2_func(x[0], x[1], y[0], y[1])
    return z0, z1


def _mxor(x: _ShareVec, y: _ShareVec) -> _ShareVec:
    return x[0] ^ y[0], x[1] ^ y[1]


def _mnot(x: _ShareVec) -> _ShareVec:
    return ~x[0], x[1]


def _mrefresh(x: _ShareVec, m: np.ndarray) -> _ShareVec:
    return x[0] ^ m, x[1] ^ m


class MaskedSboxModel:
    """Share-level model of one protected DES S-box (Fig. 8a / 9a).

    The dataflow is identical for the FF and PD variants — they differ
    only in how arrival times are enforced — so a single model covers
    both.
    """

    def __init__(self, sbox: int):
        self.sbox = sbox
        self.decomp = decompose_sbox(sbox, all_products=True)

    def __call__(
        self,
        x_s0: np.ndarray,
        x_s1: np.ndarray,
        rand14: np.ndarray,
        refresh_mask: Optional[Sequence[bool]] = None,
        expose_intermediates: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate the masked S-box.

        Args:
            x_s0, x_s1: (6, n) share matrices of the six input bits
                (x0..x5, paper order: x0 MSB).  ``n`` may be any
                trailing shape and the matrices boolean or packed
                ``uint64`` words; outputs take their dtype and shape.
            rand14: (14, n) fresh random bits: [0..9] product refresh,
                [10..13] select-product refresh.
            refresh_mask: Optional 14 booleans selecting which refresh
                positions are actually applied — the paper's
                future-work optimisation of "selectively refreshing
                only some of the ten terms"; see
                :mod:`repro.des.selective_refresh`.
            expose_intermediates: Also return the mini-S-box XOR-plane
                outputs and refreshed select products (for uniformity
                audits).

        Returns:
            ``(out0, out1)`` — (4, n) share matrices — or, with
            ``expose_intermediates``, ``(out0, out1, rows_out, sel)``.
        """
        if refresh_mask is None:
            refresh_mask = [True] * 14
        zero = np.zeros_like(x_s0[0])
        xs = [(x_s0[i], x_s1[i]) for i in range(6)]
        mid = xs[1:5]  # x1..x4 — mini S-box inputs

        # --- AND stage: the 10 shared product terms (10 secAND2 each
        # variant; degree-3 terms chain one more gadget on a degree-2
        # product, Fig. 4 / Fig. 6).
        products: dict = {}
        for mask in self.decomp.monomials:
            deg = bin(mask).count("1")
            if deg == 2:
                i, j = [k for k in range(4) if mask & (8 >> k)]
                # higher-indexed variable takes the y role (its share 1
                # must arrive last in the timed implementations)
                products[mask] = _mand(mid[i], mid[j])
        for mask in self.decomp.monomials:
            if bin(mask).count("1") == 3:
                d2, extra = self.decomp.deg3_factorisation(mask)
                products[mask] = _mand(products[d2], mid[extra])

        # --- refresh the product terms (10 fresh bits) before the
        # linear layer (Sec. III-C / IV-A).
        refreshed = {
            mask: (
                _mrefresh(products[mask], rand14[k])
                if refresh_mask[k]
                else products[mask]
            )
            for k, mask in enumerate(self.decomp.monomials)
        }

        # --- mini S-box XOR stage (Eq. 3): linear terms + constants.
        rows_out: List[List[_ShareVec]] = []
        for row in self.decomp.rows:
            bits: List[_ShareVec] = []
            for b in range(4):
                acc0 = ~zero if row.constants[b] else zero
                acc1 = zero
                for v in row.linear[b]:
                    acc0 = acc0 ^ mid[v][0]
                    acc1 = acc1 ^ mid[v][1]
                for mask in row.products[b]:
                    acc0 = acc0 ^ refreshed[mask][0]
                    acc1 = acc1 ^ refreshed[mask][1]
                bits.append((acc0, acc1))
            rows_out.append(bits)

        # --- MUX stage 1 (Eq. 4 selects): 4 secAND2 on (x0, x5) with
        # masked NOTs, refreshed with 4 fresh bits, then registered.
        x0_, x5_ = xs[0], xs[5]
        sel_raw = [
            _mand(_mnot(x0_), _mnot(x5_)),
            _mand(_mnot(x0_), x5_),
            _mand(x0_, _mnot(x5_)),
            _mand(x0_, x5_),
        ]
        sel = [
            _mrefresh(sel_raw[r], rand14[10 + r])
            if refresh_mask[10 + r]
            else sel_raw[r]
            for r in range(4)
        ]

        # --- MUX stage 2: 16 secAND2 (select x mini output) and
        # stage 3: XOR the four rows per output bit.
        out0 = np.zeros((4,) + zero.shape, dtype=zero.dtype)
        out1 = np.zeros_like(out0)
        for b in range(4):
            acc: Optional[_ShareVec] = None
            for r in range(4):
                term = _mand(sel[r], rows_out[r][b])
                acc = term if acc is None else _mxor(acc, term)
            out0[b], out1[b] = acc
        if expose_intermediates:
            return out0, out1, rows_out, sel
        return out0, out1


@dataclass(frozen=True)
class _VariantSpec:
    name: str
    sbox_latency: int
    cycles_per_round: int
    needs_reset: bool


_VARIANTS = {
    # 5-cycle S-box + input/output S-box registers -> 7 cycles/round
    "ff": _VariantSpec("secAND2-FF", 5, 7, True),
    # 2-cycle S-box, no extra registers -> 2 cycles/round
    "pd": _VariantSpec("secAND2-PD", 2, 2, False),
}


class MaskedDES:
    """First-order masked DES engine (share-level).

    Args:
        variant: ``"ff"`` (secAND2-FF engine, Fig. 8) or ``"pd"``
            (secAND2-PD engine, Fig. 9).
        recycle_randomness: Reuse the same 14 fresh bits across all
            eight S-boxes of a round (the paper's reference choice).
    """

    def __init__(self, variant: str = "ff", recycle_randomness: bool = True):
        if variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {sorted(_VARIANTS)}")
        self.variant = variant
        self.spec = _VARIANTS[variant]
        self.recycle_randomness = recycle_randomness
        self._sboxes = [MaskedSboxModel(i) for i in range(8)]

    # -- cost model ----------------------------------------------------
    @property
    def cycles_per_round(self) -> int:
        return self.spec.cycles_per_round

    @property
    def total_cycles(self) -> int:
        """Whole-operation latency (paper: 115 cycles for the FF core).

        16 rounds plus three overhead cycles (load/initial-mask/output).
        """
        return N_ROUNDS * self.spec.cycles_per_round + 3

    @property
    def random_bits_per_round(self) -> int:
        return SBOX_RANDOM_BITS * (1 if self.recycle_randomness else 8)

    @property
    def random_bits_total(self) -> int:
        return self.random_bits_per_round * N_ROUNDS

    # -- functional model ----------------------------------------------
    def _round_randomness(
        self, prng: RandomnessSource, n: int
    ) -> List[np.ndarray]:
        """Per-S-box (14, n) random matrices for one round."""
        if self.recycle_randomness:
            r = prng.bits(SBOX_RANDOM_BITS, n)
            return [r] * 8
        return [prng.bits(SBOX_RANDOM_BITS, n) for _ in range(8)]

    def encrypt_shares(
        self,
        pt_s0: np.ndarray,
        pt_s1: np.ndarray,
        key_s0: np.ndarray,
        key_s1: np.ndarray,
        prng: RandomnessSource,
        decrypt: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Encrypt (or decrypt) shared data under a shared key.

        All arguments are (64, n) bit-share matrices; returns the
        (64, n) output shares.  Decryption runs the identical masked
        datapath with the round keys reversed (the round-based
        architecture's decrypt mode).
        """
        keys = masked_round_keys_bits(key_s0, key_s1)
        if decrypt:
            keys = keys[::-1]
        s0 = permute_rows(pt_s0, IP)
        s1 = permute_rows(pt_s1, IP)
        l0, r0 = s0[:32], s0[32:]
        l1, r1 = s1[:32], s1[32:]
        n = pt_s0.shape[1]
        for rnd in range(N_ROUNDS):
            k0, k1 = keys[rnd]
            e0 = permute_rows(r0, E) ^ k0
            e1 = permute_rows(r1, E) ^ k1
            rand = self._round_randomness(prng, n)
            f0 = np.zeros((32, n), dtype=bool)
            f1 = np.zeros((32, n), dtype=bool)
            for i in range(8):
                o0, o1 = self._sboxes[i](
                    e0[6 * i : 6 * i + 6], e1[6 * i : 6 * i + 6], rand[i]
                )
                f0[4 * i : 4 * i + 4] = o0
                f1[4 * i : 4 * i + 4] = o1
            f0 = permute_rows(f0, P)
            f1 = permute_rows(f1, P)
            l0, r0 = r0, l0 ^ f0
            l1, r1 = r1, l1 ^ f1
        c0 = permute_rows(np.concatenate([r0, l0], axis=0), FP)
        c1 = permute_rows(np.concatenate([r1, l1], axis=0), FP)
        return c0, c1

    def encrypt(
        self,
        plaintext_bits: np.ndarray,
        key_bits: np.ndarray,
        prng: RandomnessSource,
        decrypt: bool = False,
    ) -> np.ndarray:
        """Mask, encrypt, unmask: (64, n) bits in, (64, n) bits out.

        The key is re-masked before every operation (as in the paper's
        evaluation: "the DES key is fixed ... but masked before every
        DES operation").
        """
        n = plaintext_bits.shape[1]
        pm = prng.bits(64, n)
        km = prng.bits(64, n)
        c0, c1 = self.encrypt_shares(
            plaintext_bits ^ pm, pm, key_bits ^ km, km, prng, decrypt=decrypt
        )
        return c0 ^ c1

    def decrypt(
        self,
        ciphertext_bits: np.ndarray,
        key_bits: np.ndarray,
        prng: RandomnessSource,
    ) -> np.ndarray:
        """Masked decryption (reversed round keys, same datapath)."""
        return self.encrypt(ciphertext_bits, key_bits, prng, decrypt=True)

    def tdes_encrypt(
        self,
        plaintext_bits: np.ndarray,
        k1_bits: np.ndarray,
        k2_bits: np.ndarray,
        k3_bits: Optional[np.ndarray] = None,
        prng: Optional[RandomnessSource] = None,
    ) -> np.ndarray:
        """Masked EDE Triple-DES (the paper's motivating use of DES).

        Three chained masked DES operations (E-D-E); each operation
        re-masks its inputs, exactly as three back-to-back runs of the
        engine would on hardware.  Two-key EDE when ``k3`` is omitted.
        """
        if prng is None:
            prng = RandomnessSource()
        if k3_bits is None:
            k3_bits = k1_bits
        stage1 = self.encrypt(plaintext_bits, k1_bits, prng)
        stage2 = self.decrypt(stage1, k2_bits, prng)
        return self.encrypt(stage2, k3_bits, prng)

    def tdes_decrypt(
        self,
        ciphertext_bits: np.ndarray,
        k1_bits: np.ndarray,
        k2_bits: np.ndarray,
        k3_bits: Optional[np.ndarray] = None,
        prng: Optional[RandomnessSource] = None,
    ) -> np.ndarray:
        """Masked EDE Triple-DES decryption."""
        if prng is None:
            prng = RandomnessSource()
        if k3_bits is None:
            k3_bits = k1_bits
        stage1 = self.decrypt(ciphertext_bits, k3_bits, prng)
        stage2 = self.encrypt(stage1, k2_bits, prng)
        return self.decrypt(stage2, k1_bits, prng)
