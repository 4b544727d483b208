"""Cross-validation of the exact verifier against TVLA.

Two independent oracles judge the same gadget:

* the exact verifier (:func:`repro.verify.report.verify`) — the full
  joint distribution of every glitch-extended probe, no sampling;
* a fixed-vs-random TVLA campaign (:func:`repro.leakage.acquisition.
  detect_leakage_traces`) over the *same* spec, driven through
  :class:`SpecTraceSource` — the paper's statistical methodology.

A probe-trace bias is a per-wire toggle-rate difference between the
secret classes, and the power model is a weighted toggle count, so an
exact leak surfaces as a first-order t-statistic once the trace budget
covers the bias; conversely a gadget with exactly independent probes
has classwise-identical power distributions and TVLA stays quiet (up
to the threshold's false-positive rate).  The slow cross-validation
suite (``tests/test_verify_crossval.py``) asserts this agreement,
``leak <-> |t| > 4.5``, over the gadget preset set at a seeded 10k
traces.

One structural caveat: when a biased probe sits *symmetrically on the
two output shares* (equal weights, opposite toggle-rate biases in the
same time bin), the differences cancel in the summed power mean — the
first-order t-statistic stays flat at any trace budget while the
second-order statistic explodes.  ``insecure_f_xy`` and ``pchain3_pd``
exhibit exactly this: the exact verifier (per-wire resolution) is
strictly stronger than first-order TVLA on aggregated power, and the
suite pins the gap down via :meth:`CrossValidation.tvla_leaks_at`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..leakage.acquisition import CampaignConfig, detect_leakage_traces
from ..leakage.tvla import THRESHOLD, TvlaResult
from ..sim.clocking import ClockedHarness
from ..sim.power import PowerRecorder
from .probes import MAX_INPUT_BITS, GadgetSpec
from .report import VerificationResult, verify

__all__ = ["SpecTraceSource", "CrossValidation", "cross_validate"]


class SpecTraceSource:
    """Fixed-vs-random trace source over a :class:`GadgetSpec`.

    Drives the spec's circuit through the verifier's protocol
    (:meth:`GadgetSpec.drive`) but with sampled stimuli and a
    :class:`~repro.sim.power.PowerRecorder`: fixed class = fixed
    unshared secrets under fresh uniform sharings, random class =
    uniform secrets; fresh masks uniform in both.  Unlike the verifier
    the source keeps schedule compilation on — batches replay the same
    event pattern, which is the campaign fast path.
    """

    def __init__(
        self,
        spec: GadgetSpec,
        fixed_secrets: Optional[Dict[str, int]] = None,
        bin_ps: int = 250,
        pack_traces: "bool | str" = "auto",
    ):
        spec.validate()
        self.spec = spec
        self.period_ps = spec.resolved_period_ps
        self.total_time_ps = spec.n_cycles * self.period_ps
        self.bin_ps = bin_ps
        #: Execution mode for per-batch harnesses
        #: (:mod:`repro.sim.bitpack`); campaign runners overwrite this
        #: with :attr:`CampaignConfig.pack_traces`.  The exact verifier
        #: itself is untouched — only the sampled TVLA side packs.
        self.pack_traces = pack_traces
        self.n_samples = -(-self.total_time_ps // bin_ps)
        self.fixed_secrets = (
            {name: 1 for name in spec.secret_names}
            if fixed_secrets is None
            else dict(fixed_secrets)
        )

    def warmup(self):
        """Compile the cycle schedules once before workers fork."""
        self.acquire(np.zeros(2, dtype=bool), np.random.default_rng(0))
        return (self.spec.circuit,)

    def acquire(
        self, fixed_mask: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        spec = self.spec
        n = fixed_mask.shape[0]
        values: Dict[str, np.ndarray] = {}
        for name, shares in spec.secrets:
            v = rng.integers(0, 2, size=n).astype(bool)
            v[fixed_mask] = bool(self.fixed_secrets[name])
            drawn = [
                rng.integers(0, 2, size=n).astype(bool)
                for _ in range(len(shares) - 1)
            ]
            last = v.copy()
            for part in drawn:
                last ^= part
            for share_name, arr in zip(shares, drawn + [last]):
                values[share_name] = arr
        for name in spec.randoms:
            values[name] = rng.integers(0, 2, size=n).astype(bool)

        harness = ClockedHarness(
            spec.circuit, n, period_ps=self.period_ps,
            pack_traces=self.pack_traces,
        )
        recorder = PowerRecorder(
            n, self.total_time_ps, bin_ps=self.bin_ps,
            weights=harness.sim.weights,
        )
        spec.drive(harness, values, recorder)
        return recorder.power


@dataclass
class CrossValidation:
    """Verdict pair of one gadget: exact verifier vs TVLA."""

    gadget: str
    exact: VerificationResult
    tvla: TvlaResult
    detected_at: Optional[int]
    threshold: float = THRESHOLD

    @property
    def exact_leaks(self) -> bool:
        return not self.exact.secure

    @property
    def tvla_leaks(self) -> bool:
        return self.tvla.leaks(1, self.threshold)

    def tvla_leaks_at(self, order: int) -> bool:
        """TVLA verdict at a chosen order (share-symmetric probe biases
        cancel in the first-order power mean and surface at order 2)."""
        return self.tvla.leaks(order, self.threshold)

    @property
    def agree(self) -> bool:
        return self.exact_leaks == self.tvla_leaks

    def render(self) -> str:
        exact = (
            f"{self.exact.n_leaking} leaking probes"
            if self.exact_leaks
            else "0 leaking probes"
        )
        tvla = (
            f"|t1|max {self.tvla.max_abs(1):.2f} "
            f"({'LEAK' if self.tvla_leaks else 'ok'}"
            + (f" @ {self.detected_at} traces" if self.detected_at else "")
            + ")"
        )
        return (
            f"{self.gadget}: exact {exact} | TVLA {tvla} | "
            f"{'AGREE' if self.agree else 'DISAGREE'}"
        )


def cross_validate(
    spec: GadgetSpec,
    n_traces: int = 10_000,
    batch_size: int = 2_500,
    noise_sigma: float = 0.25,
    seed: int = 0,
    threshold: float = THRESHOLD,
    n_workers: int = 1,
    max_input_bits: int = MAX_INPUT_BITS,
) -> CrossValidation:
    """Judge one gadget with both oracles and compare the verdicts.

    ``noise_sigma`` defaults low because the presets are single gadget
    instances — the paper boosts SNR by replicating instances with
    shared inputs, which for identical replicas is equivalent to
    scaling the noise down.
    """
    exact = verify(spec, max_input_bits=max_input_bits)
    source = SpecTraceSource(spec)
    config = CampaignConfig(
        n_traces=n_traces,
        batch_size=min(batch_size, n_traces),
        noise_sigma=noise_sigma,
        seed=seed,
        label=f"{spec.name} crossval",
    )
    detected_at, tvla = detect_leakage_traces(
        source, config, order=1, threshold=threshold, n_workers=n_workers
    )
    return CrossValidation(
        gadget=spec.name,
        exact=exact,
        tvla=tvla,
        detected_at=detected_at,
        threshold=threshold,
    )
