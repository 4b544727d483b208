"""Full gate-level masked DES engines (Fig. 8b and Fig. 9b).

These are the devices-under-test of the paper's evaluation (Sec. VII):
complete round-based masked DES cores — state registers, masked key
schedule running in parallel, eight protected S-boxes — built as flat
netlists and driven cycle by cycle on the glitch simulator, producing
the power traces that feed TVLA.

* :class:`MaskedDESNetlistEngine` with ``variant="ff"``: 7 cycles per
  round (5-cycle S-box + input/output S-box registers); the harness
  resets the secAND2-FF gadget flip-flops at every round start
  (Sec. II-C).
* ``variant="pd"``: 2 cycles per round; the S-box output feeds the
  input register directly while the state register updates in parallel
  (Sec. IV-C); DelayUnit size is a parameter (the Fig. 15 sweep).

The plaintext/key loading and initial masking are performed silently
(registers preloaded before recording starts); the recorded trace
covers the sixteen rounds, like the paper's Fig. 13/16 traces cover the
DES operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.gadgets import SharePair
from ..leakage.prng import RandomnessSource
from ..netlist.cells import DELAY_UNIT_DEFAULT_LUTS
from ..netlist.circuit import Circuit
from ..netlist.timing import analyze
from ..sim.bitpack import resolve_pack_traces
from ..sim.clocking import ClockedHarness
from ..sim.power import CouplingModel, PowerRecorder, default_weights
from .bits import permute_rows
from .masked_netlist import (
    FFSboxControls,
    PDSboxControls,
    build_sbox_ff,
    build_sbox_pd,
)
from .tables import E, FP, IP, N_ROUNDS, P, PC1, PC2, SHIFTS

__all__ = ["MaskedDESNetlistEngine", "DESTraceSource"]


def _rot_amounts(round_index: int) -> int:
    """SHIFTS entry selecting the rotation applied when entering
    ``round_index + 1`` (0-based rounds)."""
    nxt = round_index + 1
    return SHIFTS[nxt] if nxt < N_ROUNDS else 1


class MaskedDESNetlistEngine:
    """Gate-level first-order masked DES core.

    Args:
        variant: ``"ff"`` or ``"pd"``.
        n_luts: DelayUnit size in LUTs (PD variant only).
        recycle_randomness: One set of 14 fresh bits shared by all eight
            S-boxes per round (paper default) vs. 112 independent bits.
        routing_jitter_seed: Seed of the deterministic placement-skew
            model; ``None`` disables jitter (idealised routing).
        gate_jitter_ps: Per-LUT routing-skew sigma.  Each secAND2
            output share is one atomic LUT (SECAND2L cell), so this
            skew acts *between* LUTs: it spreads the arrival instants
            of independently-routed nets, exactly like placement does
            on the fabric (two nets never switch at the same exact
            instant).
        delay_jitter_ps: Skew sigma per DelayUnit route.  The staggered
            arrival order only holds while the DelayUnit exceeds this
            skew, which is what the Sec. VII-B size sweep measures.
        pack_traces: Default execution mode for :meth:`run_batch`
            harnesses (``False`` / ``True`` / ``"auto"``; see
            :mod:`repro.sim.bitpack`).  ``"auto"`` bit-packs campaign
            batches of 64+ traces and leaves tiny batches boolean.
    """

    def __init__(
        self,
        variant: str = "ff",
        n_luts: int = DELAY_UNIT_DEFAULT_LUTS,
        recycle_randomness: bool = True,
        routing_jitter_seed: Optional[int] = 2023,
        gate_jitter_ps: float = 40.0,
        delay_jitter_ps: float = 700.0,
        sbox_output_register: bool = True,
        pack_traces: "bool | str" = "auto",
    ):
        if variant not in ("ff", "pd"):
            raise ValueError("variant must be 'ff' or 'pd'")
        self.variant = variant
        self.n_luts = n_luts
        self.recycle_randomness = recycle_randomness
        self.delay_jitter_ps = delay_jitter_ps
        self.pack_traces = pack_traces
        self.sbox_output_register = sbox_output_register
        self.coupling_pairs: List[Tuple[int, int]] = []
        self.circuit = Circuit(f"masked-DES-{variant}")
        if routing_jitter_seed is not None:
            self.circuit.enable_routing_jitter(
                routing_jitter_seed, gate_jitter_ps, delay_jitter_ps
            )
        self._build()
        self.circuit.check()
        self.timing = analyze(self.circuit)
        self.period_ps = int(self.timing.critical_path_ps) + 200
        if variant == "ff":
            # the Sec. VI-A future-work ablation: dropping the S-box
            # output register saves one cycle per round (7 -> 6)
            self.cycles_per_round = 7 if sbox_output_register else 6
        else:
            self.cycles_per_round = 2
        self.total_cycles = N_ROUNDS * self.cycles_per_round + 1
        # Sampling resolution: the paper samples at 500 MS/s with a
        # 3 MHz clock (~167 samples/cycle).  Fine bins matter for the
        # PD engine, whose round activity is concentrated in two long
        # cycles — coarse bins would bury localised effects (coupling)
        # under the whole round's switching noise.
        self.bin_ps = max(50, self.period_ps // (32 if variant == "pd" else 4))
        self.n_samples = -(-self.total_cycles * self.period_ps // self.bin_ps)

    # ------------------------------------------------------------------
    # netlist construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        c = self.circuit
        n_rand = 14 if self.recycle_randomness else 112
        self.rand_wires = [c.add_input(f"rand{k}") for k in range(n_rand)]
        self.shift2 = c.add_input("shift2")
        if self.variant == "ff":
            self._build_ff(c)
        else:
            self._build_pd(c)

    def _state_registers(
        self, c: Circuit, en_state: int
    ) -> Tuple[List[List[int]], List[List[int]], List[List[int]], List[List[int]], List[List[int]]]:
        """L/R/C/D register banks; returns (r_d, r_q, l_q, cd_d, cd_q).

        ``r_d`` are pre-allocated D wires for R (driven later by the
        round-function XORs); C/D rotation muxes drive ``cd_d``.
        """
        r_d = [[c.add_wire(f"R_d_s{j}_{i}") for i in range(32)] for j in range(2)]
        r_q = [
            [c.dffe(r_d[j][i], en_state, name=f"R_s{j}_{i}") for i in range(32)]
            for j in range(2)
        ]
        l_q = [
            [c.dffe(r_q[j][i], en_state, name=f"L_s{j}_{i}") for i in range(32)]
            for j in range(2)
        ]
        # masked key schedule: C and D halves with rot1/rot2 muxes
        cd_d = [[c.add_wire(f"CD_d_s{j}_{i}") for i in range(56)] for j in range(2)]
        cd_q = [
            [c.dffe(cd_d[j][i], en_state, name=f"CD_s{j}_{i}") for i in range(56)]
            for j in range(2)
        ]
        for j in range(2):
            for i in range(56):
                half, pos = (0, i) if i < 28 else (1, i - 28)
                src1 = cd_q[j][half * 28 + (pos + 1) % 28]
                src2 = cd_q[j][half * 28 + (pos + 2) % 28]
                c.add_gate(
                    "MUX2",
                    [self.shift2, src1, src2],
                    output=cd_d[j][i],
                    name=f"rot_s{j}_{i}",
                )
        return r_d, r_q, l_q, cd_d, cd_q

    def _sbox_rand(self, box: int) -> List[int]:
        if self.recycle_randomness:
            return self.rand_wires
        return self.rand_wires[14 * box : 14 * box + 14]

    def _round_function(
        self,
        c: Circuit,
        r_source: List[List[int]],
        key_source: List[List[int]],
        l_q: List[List[int]],
        r_d: List[List[int]],
        sbox_builder,
    ) -> None:
        """Wire E -> key XOR -> S-boxes -> P -> L XOR into ``r_d``.

        ``r_source``: the 32-bit state the expansion reads (R register Q
        for the FF engine; the *combinational* next-R for the PD
        engine's direct input-register path).  ``key_source``: the
        56-bit C||D providing the round key via PC2.
        """
        xin: List[List[int]] = [[], []]
        for j in range(2):
            k = [key_source[j][PC2[t] - 1] for t in range(48)]
            e = [r_source[j][E[t] - 1] for t in range(48)]
            xin[j] = [
                c.xor2(e[t], k[t], name=f"keyadd_s{j}_{t}") for t in range(48)
            ]
        sout: List[List[int]] = [[], []]
        for box in range(8):
            ins = [
                SharePair(xin[0][6 * box + t], xin[1][6 * box + t])
                for t in range(6)
            ]
            outs = sbox_builder(box, ins)
            for p in outs:
                sout[0].append(p.s0)
                sout[1].append(p.s1)
        for j in range(2):
            f = [sout[j][P[i] - 1] for i in range(32)]
            for i in range(32):
                c.add_gate(
                    "XOR2",
                    [l_q[j][i], f[i]],
                    output=r_d[j][i],
                    name=f"fxor_s{j}_{i}",
                )

    def _build_ff(self, c: Circuit) -> None:
        ctrl = FFSboxControls(
            en_inreg=c.add_input("en_inreg"),
            en_deg2=c.add_input("en_deg2"),
            en_deg3=c.add_input("en_deg3"),
            en_muxreg=c.add_input("en_muxreg"),
            en_mux2=c.add_input("en_mux2"),
            en_outreg=c.add_input("en_outreg"),
        )
        self.en_state = c.add_input("en_state")
        self.ctrl = ctrl
        r_d, r_q, l_q, cd_d, cd_q = self._state_registers(c, self.en_state)
        self._r_q, self._l_q = r_q, l_q

        def sbox_builder(box: int, ins: List[SharePair]) -> List[SharePair]:
            return build_sbox_ff(
                c,
                box,
                ins,
                self._sbox_rand(box),
                ctrl,
                tag=f"sb{box}",
                output_register=self.sbox_output_register,
            )

        # FF engine: expansion reads the R register, round key reads the
        # C/D registers (preloaded already rotated for round 1).
        self._round_function(c, r_q, cd_q, l_q, r_d, sbox_builder)

    def _build_pd(self, c: Circuit) -> None:
        ctrl = PDSboxControls(
            en_round=c.add_input("en_round"), en_mid=c.add_input("en_mid")
        )
        self.ctrl = ctrl
        self.en_state = ctrl.en_round
        r_d, r_q, l_q, cd_d, cd_q = self._state_registers(c, ctrl.en_round)
        self._r_q, self._l_q = r_q, l_q

        def sbox_builder(box: int, ins: List[SharePair]) -> List[SharePair]:
            outs, pairs = build_sbox_pd(
                c,
                box,
                ins,
                self._sbox_rand(box),
                ctrl,
                n_luts=self.n_luts,
                tag=f"sb{box}",
            )
            self.coupling_pairs.extend(pairs)
            return outs

        # PD engine: the S-box input register is loaded from the *next*
        # round state directly (Fig. 9b): expansion reads the
        # combinational next-R (r_d) and the key via the rotation muxes
        # (cd_d), both sampled at the same round edge as the state.
        self._round_function(c, r_d, cd_d, l_q, r_d, sbox_builder)

    # ------------------------------------------------------------------
    # operation
    # ------------------------------------------------------------------
    def _initial_state(
        self,
        pt_s: Tuple[np.ndarray, np.ndarray],
        key_s: Tuple[np.ndarray, np.ndarray],
    ) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
        """Per-share L0/R0 and round-1-rotated C||D (numpy, (bits, n))."""
        l0, r0, cd1 = [], [], []
        for j in range(2):
            st = permute_rows(pt_s[j], IP)
            l0.append(st[:32])
            r0.append(st[32:])
            cd = permute_rows(key_s[j], PC1)
            ch = np.roll(cd[:28], -SHIFTS[0], axis=0)
            dh = np.roll(cd[28:], -SHIFTS[0], axis=0)
            cd1.append(np.concatenate([ch, dh], axis=0))
        return l0, r0, cd1

    def _preload(
        self,
        h: ClockedHarness,
        l0: List[np.ndarray],
        r0: List[np.ndarray],
        cd1: List[np.ndarray],
        rand_bits: np.ndarray,
    ) -> None:
        ff_vals: Dict[str, np.ndarray] = {}
        for j in range(2):
            for i in range(32):
                ff_vals[f"L_s{j}_{i}"] = l0[j][i]
                ff_vals[f"R_s{j}_{i}"] = r0[j][i]
            for i in range(56):
                ff_vals[f"CD_s{j}_{i}"] = cd1[j][i]
        if self.variant == "pd":
            # the input registers hold E(R0) ^ K1 at the start of round 1
            for j in range(2):
                k1 = np.stack([cd1[j][PC2[t] - 1] for t in range(48)])
                e0 = np.stack([r0[j][E[t] - 1] for t in range(48)])
                xin = e0 ^ k1
                for box in range(8):
                    for t in range(6):
                        ff_vals[f"sb{box}_in{t}s{j}"] = xin[6 * box + t]
        inputs = {w: np.zeros(h.n_traces, dtype=bool) for w in self.circuit.inputs}
        for k, w in enumerate(self.rand_wires):
            inputs[w] = rand_bits[k]
        h.preload(ff_vals, inputs)

    def _wire_weights(self) -> np.ndarray:
        """Per-wire toggle energies (``1 + fanout``), cached: the
        circuit never changes after construction, and the values are
        identical to what ``VectorSimulator.weights`` computes."""
        n_wires = self.circuit.n_wires
        w = getattr(self, "_wire_weights_cache", None)
        if w is None or len(w) != n_wires:
            w = default_weights(self.circuit.fanout_map(), n_wires)
            self._wire_weights_cache = w
        return w

    def _round_rand(self, prng: RandomnessSource, n: int) -> np.ndarray:
        return prng.bits(len(self.rand_wires), n)

    def _rand_events(self, rand_bits: np.ndarray) -> List[Tuple[int, int, np.ndarray]]:
        return [(10, w, rand_bits[k]) for k, w in enumerate(self.rand_wires)]

    def _ctrl_event(self, name_wire: int, value: bool) -> Tuple[int, int, bool]:
        return (10, name_wire, value)

    def run_batch(
        self,
        pt_bits: np.ndarray,
        key_bits: np.ndarray,
        prng: RandomnessSource,
        record: bool = True,
        coupling_coefficient: float = 0.0,
        pack_traces: "bool | str | None" = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Encrypt a batch and optionally record its power traces.

        Args:
            pt_bits / key_bits: (64, n) plaintext and key bit matrices.
            prng: Randomness source (initial masking + refresh bits);
                disabled = the paper's PRNG-off sanity mode.
            record: Record toggle power.
            coupling_coefficient: Enable the Sec. VII-C coupling model
                on the PD delay-line pairs with this strength.
            pack_traces: Override the engine's default execution mode
                for this batch (``None`` keeps the constructor's).

        Returns:
            ``(ciphertext_bits (64, n), power (n, n_samples) or None)``.
        """
        n = pt_bits.shape[1]
        pm = prng.bits(64, n)
        km = prng.bits(64, n)
        pt_s = (pt_bits ^ pm, pm)
        key_s = (key_bits ^ km, km)

        if pack_traces is None:
            pack_traces = self.pack_traces

        recorder = None
        if record:
            coupling = None
            if coupling_coefficient > 0 and self.coupling_pairs:
                # adjacent delay lines couple along their whole length;
                # the coincidence window must cover the routing skew
                # between the two shares' transitions
                window = max(150, int(3 * self.delay_jitter_ps))
                coupling = CouplingModel(
                    self.coupling_pairs,
                    coefficient=coupling_coefficient,
                    window_ps=window,
                )
            recorder = PowerRecorder(
                n,
                self.total_cycles * self.period_ps,
                bin_ps=self.bin_ps,
                weights=self._wire_weights(),
                coupling=coupling,
            )

        h = ClockedHarness(
            self.circuit,
            n,
            self.period_ps,
            check_timing=False,
            pack_traces=resolve_pack_traces(pack_traces, n),
        )
        rand0 = self._round_rand(prng, n)
        l0, r0, cd1 = self._initial_state(pt_s, key_s)
        self._preload(h, l0, r0, cd1, rand0)

        if self.variant == "ff":
            self._run_ff(h, recorder, prng, rand0)
        else:
            self._run_pd(h, recorder, prng, rand0)

        ct = self._read_ciphertext(h)
        power = recorder.power if recorder is not None else None
        return ct, power

    def _run_ff(
        self,
        h: ClockedHarness,
        rec: Optional[PowerRecorder],
        prng: RandomnessSource,
        rand0: np.ndarray,
    ) -> None:
        c = self.circuit
        ctrl = self.ctrl
        n = h.n_traces
        ev = self._ctrl_event
        for rnd in range(N_ROUNDS):
            rand_bits = rand0 if rnd == 0 else self._round_rand(prng, n)
            shift_next = np.full(n, _rot_amounts(rnd) == 2)
            # E0: state regs sampled (en_state from prev c6), gadget reset
            h.step(
                self._rand_events(rand_bits)
                + [
                    ev(self.en_state, False),
                    ev(ctrl.en_inreg, True),
                    (10, self.shift2, shift_next),
                ],
                recorder=rec,
                reset_groups=("gadget",),
            )
            h.step([ev(ctrl.en_inreg, False), ev(ctrl.en_deg2, True)], recorder=rec)
            h.step(
                [ev(ctrl.en_deg2, False), ev(ctrl.en_deg3, True), ev(ctrl.en_muxreg, True)],
                recorder=rec,
            )
            h.step(
                [ev(ctrl.en_deg3, False), ev(ctrl.en_muxreg, False), ev(ctrl.en_mux2, True)],
                recorder=rec,
            )
            if self.sbox_output_register:
                h.step(
                    [ev(ctrl.en_mux2, False), ev(ctrl.en_outreg, True)],
                    recorder=rec,
                )
                h.step([ev(ctrl.en_outreg, False)], recorder=rec)
                h.step([ev(self.en_state, True)], recorder=rec)
            else:
                # 6-cycle round: stage 3 feeds the round XOR directly
                h.step([ev(ctrl.en_mux2, False)], recorder=rec)
                h.step([ev(self.en_state, True)], recorder=rec)
        # final edge: state registers latch round 16's result
        h.step([ev(self.en_state, False)], recorder=rec)

    def _run_pd(
        self,
        h: ClockedHarness,
        rec: Optional[PowerRecorder],
        prng: RandomnessSource,
        rand0: np.ndarray,
    ) -> None:
        ctrl = self.ctrl
        n = h.n_traces
        ev = self._ctrl_event
        for rnd in range(N_ROUNDS):
            rand_bits = rand0 if rnd == 0 else self._round_rand(prng, n)
            shift_next = np.full(n, _rot_amounts(rnd) == 2)
            # c0: stage A settles; mid regs sample at the next edge
            h.step(
                self._rand_events(rand_bits)
                + [
                    ev(ctrl.en_round, False),
                    ev(ctrl.en_mid, True),
                    (10, self.shift2, shift_next),
                ],
                recorder=rec,
            )
            # c1: stage B settles; round edge next
            h.step([ev(ctrl.en_mid, False), ev(ctrl.en_round, True)], recorder=rec)
        h.step([ev(ctrl.en_round, False)], recorder=rec)

    def _read_ciphertext(self, h: ClockedHarness) -> np.ndarray:
        ct_shares = []
        for j in range(2):
            r = np.stack([h.ff_state(f"R_s{j}_{i}") for i in range(32)])
            l = np.stack([h.ff_state(f"L_s{j}_{i}") for i in range(32)])
            ct_shares.append(permute_rows(np.concatenate([r, l], axis=0), FP))
        return ct_shares[0] ^ ct_shares[1]


@dataclass
class DESTraceSource:
    """Fixed-vs-random trace source over a netlist engine.

    Plugs into :func:`repro.leakage.acquisition.run_campaign`: each
    batch mixes fixed-plaintext and random-plaintext encryptions under
    one fixed key (masked freshly every operation), exactly the paper's
    TVLA protocol (Sec. VII).
    """

    engine: MaskedDESNetlistEngine
    fixed_plaintext: int
    key: int
    prng_enabled: bool = True
    coupling_coefficient: float = 0.0
    verify: bool = False
    #: Execution mode per batch (:mod:`repro.sim.bitpack`); ``None``
    #: defers to the engine's default.  Campaign runners overwrite this
    #: attribute with :attr:`CampaignConfig.pack_traces`.
    pack_traces: "bool | str | None" = None

    def __post_init__(self) -> None:
        self.n_samples = self.engine.n_samples

    def warmup(self):
        """Compile every event schedule the campaign will replay.

        Simulates one throwaway trace (fixed plaintext, fixed seed) so
        the clocked harness's per-cycle schedules are in the compiled
        cache before the campaign — or a forked worker pool — starts.
        Returns the circuits whose caches the campaign runner pins.
        """
        self.acquire(np.ones(1, dtype=bool), np.random.default_rng(0))
        return (self.engine.circuit,)

    def acquire(self, fixed_mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        from .bits import int_to_bitarray
        from .reference import des_encrypt_bits

        n = fixed_mask.shape[0]
        pts = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
        pts = (pts << np.uint64(1)) | rng.integers(0, 2, size=n, dtype=np.uint64)
        pts[fixed_mask] = np.uint64(self.fixed_plaintext)
        pt_bits = int_to_bitarray(pts, 64)
        key_bits = int_to_bitarray(np.uint64(self.key), 64, n)
        prng = RandomnessSource(
            int(rng.integers(0, 2**63)), enabled=self.prng_enabled
        )
        ct, power = self.engine.run_batch(
            pt_bits,
            key_bits,
            prng,
            record=True,
            coupling_coefficient=self.coupling_coefficient,
            pack_traces=self.pack_traces,
        )
        if self.verify:
            ref = des_encrypt_bits(pt_bits, key_bits)
            if not np.array_equal(ct, ref):
                raise AssertionError("netlist engine ciphertext mismatch")
        return power
