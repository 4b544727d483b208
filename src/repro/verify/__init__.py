"""Exact glitch-extended probing verification (``python -m repro verify``).

The statistical stack (:mod:`repro.leakage`) *samples* a gadget's power
side channel; this subsystem *enumerates* it.  Every share/mask input
assignment is swept through the event-driven simulator, every wire's
full transient — its glitch-extended probe — is tabulated jointly with
the unshared secrets, and first-order security is decided by an exact
integer independence test: no floats, no thresholds, no trace budget.
Leaking probes come with concrete counterexamples (secret pair, mask
assignment, transient trace) exportable to VCD.

Entry points:

* :func:`verify` — verdict for one :class:`GadgetSpec`;
* :data:`PRESETS` / :func:`preset_spec` — the paper's gadget zoo;
* :func:`verify_fault_sweep` — exact sibling of the TVLA margin-erosion
  sweep (leaking-probe counts per delay-variation sigma);
* :func:`cross_validate` — agreement harness against the TVLA oracle.

See ``docs/verification.md`` for the theory and the budget model.
"""

from .crossval import CrossValidation, SpecTraceSource, cross_validate
from .distributions import ProbeDistribution, ProbeTabulation, tabulate_probes
from .presets import PRESETS, Preset, pd_bank_spec, preset_spec
from .probes import (
    MAX_INPUT_BITS,
    GadgetSpec,
    VerificationBudgetError,
    iter_probe_chunks,
    witness_waveforms,
)
from .report import (
    LeakingProbe,
    VerificationResult,
    VerifyFaultSweepResult,
    VerifySweepPoint,
    counterexample_vcd,
    verify,
    verify_fault_sweep,
)

__all__ = [
    "GadgetSpec",
    "VerificationBudgetError",
    "MAX_INPUT_BITS",
    "iter_probe_chunks",
    "witness_waveforms",
    "ProbeDistribution",
    "ProbeTabulation",
    "tabulate_probes",
    "LeakingProbe",
    "VerificationResult",
    "verify",
    "counterexample_vcd",
    "VerifySweepPoint",
    "VerifyFaultSweepResult",
    "verify_fault_sweep",
    "Preset",
    "PRESETS",
    "preset_spec",
    "pd_bank_spec",
    "SpecTraceSource",
    "CrossValidation",
    "cross_validate",
]
