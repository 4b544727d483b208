"""The Sec. II-B input-sequence experiments (Table I).

The paper drives the four secAND2 input shares from registers, updating
one register per clock cycle, and exhausts all 4! = 24 arrival orders;
TVLA over half a million traces shows that exactly the sequences where
``x0`` or ``x1`` arrives *last* leak, and sequences ending in ``y0`` or
``y1`` do not.

We reproduce the experiment on the glitch simulator: a bank of parallel
secAND2 instances (the paper replicates instances to boost SNR) receives
one input share per time step from the reset-to-zero state, the toggle
power is recorded, and a fixed-vs-random t-test is run per sequence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.circuit import Circuit
from ..sim.bitpack import resolve_pack_traces
from ..sim.power import PowerRecorder, default_weights
from ..sim.vectorsim import VectorSimulator
from ..leakage.acquisition import CampaignConfig, run_campaign
from ..leakage.tvla import THRESHOLD, TvlaResult
from .gadgets import build_secand2
from .shares import share

__all__ = [
    "INPUT_NAMES",
    "ALL_SEQUENCES",
    "sequence_is_safe",
    "SequenceSource",
    "SequenceVerdict",
    "assess_sequence",
    "run_table1",
]

INPUT_NAMES = ("x0", "x1", "y0", "y1")

#: All 24 arrival orders of the four input shares.
ALL_SEQUENCES: Tuple[Tuple[str, ...], ...] = tuple(
    itertools.permutations(INPUT_NAMES)
)


def sequence_is_safe(sequence: Sequence[str]) -> bool:
    """Table I's rule: safe iff ``y0`` or ``y1`` arrives last.

    Late arrival of an ``x`` share makes the output XOR toggle with
    Hamming distance ``y0 ^ y1 = y`` — an unmasked sensitive value.
    """
    return sequence[-1] in ("y0", "y1")


class SequenceSource:
    """Trace source for one arrival order (plugs into the TVLA harness).

    Each trace: all registers reset to 0, then the four shares are
    applied one per ``step_ps`` in the given order, exactly like the
    paper's register-per-cycle update.  The fixed class uses the fixed
    unshared inputs ``(x, y)`` with fresh uniform sharing per trace; the
    random class draws ``x, y`` uniformly.
    """

    def __init__(
        self,
        sequence: Sequence[str],
        n_instances: int = 8,
        fixed_xy: Tuple[int, int] = (1, 1),
        step_ps: int = 1000,
        bin_ps: int = 250,
        settle_margin_ps: int = 1000,
        pack_traces: "bool | str" = "auto",
    ):
        if sorted(sequence) != sorted(INPUT_NAMES):
            raise ValueError(f"sequence must permute {INPUT_NAMES}")
        self.sequence = tuple(sequence)
        self.fixed_xy = fixed_xy
        self.step_ps = step_ps
        self.bin_ps = bin_ps
        #: Execution mode for per-batch simulators
        #: (:mod:`repro.sim.bitpack`); campaign runners overwrite this
        #: with :attr:`CampaignConfig.pack_traces`.
        self.pack_traces = pack_traces
        self.circuit = build_secand2(n_instances=n_instances)
        total = len(sequence) * step_ps + settle_margin_ps
        self.total_time_ps = total
        self.n_samples = -(-total // bin_ps)
        self._weights_cache: Optional[np.ndarray] = None

    def _wire_weights(self) -> np.ndarray:
        """``1 + fanout`` toggle energies, identical to
        ``VectorSimulator.weights`` for this circuit (cached)."""
        n_wires = self.circuit.n_wires
        if self._weights_cache is None or len(self._weights_cache) != n_wires:
            self._weights_cache = default_weights(
                self.circuit.fanout_map(), n_wires
            )
        return self._weights_cache

    def warmup(self):
        """Compile the (single) event schedule this source replays.

        One throwaway trace covers it: every :meth:`acquire` applies
        the same four input events at the same times, so the compiled
        schedule cache holds exactly one pattern afterwards.  Returns
        the circuit for the campaign runner to pin.
        """
        self.acquire(np.ones(1, dtype=bool), np.random.default_rng(0))
        return (self.circuit,)

    def acquire(self, fixed_mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = fixed_mask.shape[0]
        x = rng.integers(0, 2, size=n).astype(bool)
        y = rng.integers(0, 2, size=n).astype(bool)
        x[fixed_mask] = bool(self.fixed_xy[0])
        y[fixed_mask] = bool(self.fixed_xy[1])
        x0, x1 = share(x, rng)
        y0, y1 = share(y, rng)
        values = {"x0": x0, "x1": x1, "y0": y0, "y1": y1}

        rec = PowerRecorder(
            n, self.total_time_ps, bin_ps=self.bin_ps,
            weights=self._wire_weights(),
        )
        sim = VectorSimulator(
            self.circuit, n,
            pack_traces=resolve_pack_traces(self.pack_traces, n),
        )
        # settle the reset state (inputs 0) without recording power
        sim.evaluate_combinational(
            {self.circuit.wire(name): False for name in INPUT_NAMES}
        )
        events = [
            (k * self.step_ps, self.circuit.wire(name), values[name])
            for k, name in enumerate(self.sequence)
        ]
        sim.settle(events, recorder=rec)
        return rec.power


@dataclass(frozen=True)
class SequenceVerdict:
    """Outcome of the TVLA test for one arrival order."""

    sequence: Tuple[str, ...]
    max_t1: float
    max_t2: float
    leaks: bool
    expected_safe: bool

    @property
    def matches_paper(self) -> bool:
        return self.leaks != self.expected_safe

    def row(self) -> str:
        order = " -> ".join(self.sequence)
        verdict = "LEAKS " if self.leaks else "clean "
        expect = "safe" if self.expected_safe else "leaky"
        return (
            f"{order:<26} max|t1|={self.max_t1:7.2f}  {verdict}"
            f"(paper: {expect})"
        )


def assess_sequence(
    sequence: Sequence[str],
    n_traces: int = 30000,
    n_instances: int = 8,
    noise_sigma: float = 1.0,
    seed: int = 0,
    threshold: float = THRESHOLD,
    n_workers: int = 1,
) -> SequenceVerdict:
    """Run the fixed-vs-random test for one arrival order.

    ``n_workers`` shards the campaign's batches over processes; the
    verdict is identical for any worker count.
    """
    source = SequenceSource(sequence, n_instances=n_instances)
    cfg = CampaignConfig(
        n_traces=n_traces,
        batch_size=min(4000, n_traces),
        noise_sigma=noise_sigma,
        seed=seed,
        label="seq " + ">".join(sequence),
    )
    result = run_campaign(source, cfg, n_workers=n_workers)
    return SequenceVerdict(
        sequence=tuple(sequence),
        max_t1=result.max_abs(1),
        max_t2=result.max_abs(2),
        leaks=result.leaks(1, threshold),
        expected_safe=sequence_is_safe(sequence),
    )


def run_table1(
    sequences: Optional[Sequence[Sequence[str]]] = None,
    n_traces: int = 30000,
    n_instances: int = 8,
    noise_sigma: float = 1.0,
    seed: int = 0,
    n_workers: int = 1,
) -> List[SequenceVerdict]:
    """Reproduce Table I over the given (default: all 24) sequences."""
    if sequences is None:
        sequences = ALL_SEQUENCES
    return [
        assess_sequence(
            seq,
            n_traces=n_traces,
            n_instances=n_instances,
            noise_sigma=noise_sigma,
            seed=seed + 17 * i,
            n_workers=n_workers,
        )
        for i, seq in enumerate(sequences)
    ]
