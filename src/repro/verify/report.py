"""Verification results, counterexamples and the exact fault sweep.

:func:`verify` is the subsystem's front door: enumerate, tabulate,
test, and package the verdict as a :class:`VerificationResult` whose
leaking probes each carry a *concrete counterexample* — the secret pair
whose trace distributions differ, a mask assignment exhibiting the
biased trace, and the transient trace itself.  The witness can be
re-simulated into a VCD (:func:`counterexample_vcd`) to watch the
offending glitch in a waveform viewer.

:func:`verify_fault_sweep` is the exact-counting sibling of
:func:`repro.faults.sweep.margin_erosion_sweep`: the same seeded
delay-variation ladder (common random numbers), but each rung is judged
by the exact verifier — leaking-probe *counts* instead of TVLA
t-scores — next to the static checker's violation counts, so the
"margin collapses -> Table I leak appears" story needs no sampling
noise at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.safety import count_violations, min_ordering_margin
from ..sim.vcd import to_vcd
from .distributions import (
    ProbeTabulation,
    TraceKey,
    tabulate_probes,
)
from .probes import MAX_INPUT_BITS, GadgetSpec, witness_waveforms

__all__ = [
    "LeakingProbe",
    "VerificationResult",
    "verify",
    "counterexample_vcd",
    "VerifySweepPoint",
    "VerifyFaultSweepResult",
    "verify_fault_sweep",
]


def _render_trace(trace: TraceKey) -> str:
    if not trace:
        return "(no transition)"
    return " -> ".join(f"t={t:g}:{v}" for t, v in trace)


@dataclass(frozen=True)
class LeakingProbe:
    """One wire whose glitch-extended probe depends on the secrets.

    The counterexample reads: under secrets ``secret_hi`` the trace
    ``trace`` occurs ``count_hi`` times out of ``class_size`` mask
    assignments, under ``secret_lo`` only ``count_lo`` times — a
    distinguisher with advantage ``bias``.  ``witness`` is a complete
    input assignment (shares and masks) that exhibits the trace under
    ``secret_hi``.
    """

    wire: int
    wire_name: str
    trace: TraceKey
    secret_hi: Dict[str, int]
    secret_lo: Dict[str, int]
    count_hi: int
    count_lo: int
    class_size: int
    witness: Dict[str, int]

    @property
    def bias(self) -> float:
        """Probability gap of the trace between the two secret values."""
        return (self.count_hi - self.count_lo) / self.class_size

    def describe(self) -> str:
        hi = " ".join(f"{k}={v}" for k, v in self.secret_hi.items())
        lo = " ".join(f"{k}={v}" for k, v in self.secret_lo.items())
        wit = " ".join(f"{k}={v}" for k, v in self.witness.items())
        return (
            f"{self.wire_name}: trace {_render_trace(self.trace)} has "
            f"P={self.count_hi}/{self.class_size} under ({hi}) vs "
            f"P={self.count_lo}/{self.class_size} under ({lo}) "
            f"[bias {self.bias:+.3f}]; witness {wit}"
        )

    def to_json_dict(self) -> dict:
        return {
            "wire": self.wire,
            "wire_name": self.wire_name,
            "trace": [[t, v] for t, v in self.trace],
            "secret_hi": self.secret_hi,
            "secret_lo": self.secret_lo,
            "count_hi": self.count_hi,
            "count_lo": self.count_lo,
            "class_size": self.class_size,
            "bias": self.bias,
            "witness": self.witness,
        }


@dataclass
class VerificationResult:
    """Exact first-order glitch-extended probing verdict of one gadget."""

    gadget: str
    n_input_bits: int
    n_assignments: int
    secrets: Tuple[str, ...]
    n_probes: int
    class_size: int
    leaks: List[LeakingProbe] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def secure(self) -> bool:
        return not self.leaks

    @property
    def n_leaking(self) -> int:
        return len(self.leaks)

    def render(self, max_leaks: int = 8) -> str:
        verdict = (
            "SECURE (first-order, glitch-extended)"
            if self.secure
            else f"LEAKS ({self.n_leaking} probes)"
        )
        lines = [
            f"{self.gadget}: {verdict}",
            f"  probes checked: {self.n_probes}  assignments: "
            f"{self.n_assignments} (2^{self.n_input_bits})  "
            f"secrets: {', '.join(self.secrets)}  "
            f"[{self.elapsed_s:.2f}s]",
        ]
        for probe in self.leaks[:max_leaks]:
            lines.append(f"  leak: {probe.describe()}")
        if self.n_leaking > max_leaks:
            lines.append(f"  ... and {self.n_leaking - max_leaks} more")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "schema": "verify_report/v1",
            "gadget": self.gadget,
            "secure": self.secure,
            "n_input_bits": self.n_input_bits,
            "n_assignments": self.n_assignments,
            "secrets": list(self.secrets),
            "n_probes": self.n_probes,
            "n_leaking": self.n_leaking,
            "class_size": self.class_size,
            "elapsed_s": self.elapsed_s,
            "leaks": [p.to_json_dict() for p in self.leaks],
        }


def _leaking_probe(
    tab: ProbeTabulation, wire: int
) -> LeakingProbe:
    """Extract the strongest counterexample for one leaking wire."""
    spec = tab.spec
    dist = tab.probes[wire]
    trace = dist.worst_trace()
    assert trace is not None
    counts = dist.counts[trace]
    s_hi = int(counts.argmax())
    s_lo = int(counts.argmin())
    witness_idx = dist.witnesses[(trace, s_hi)]
    return LeakingProbe(
        wire=wire,
        wire_name=spec.circuit.wire_name(wire),
        trace=trace,
        secret_hi=spec.decode_secret(s_hi),
        secret_lo=spec.decode_secret(s_lo),
        count_hi=int(counts[s_hi]),
        count_lo=int(counts[s_lo]),
        class_size=tab.class_size,
        witness=spec.decode_assignment(witness_idx),
    )


def verify(
    spec: GadgetSpec,
    wires: Optional[Sequence[int]] = None,
    chunk_size: int = 1 << 14,
    max_input_bits: int = MAX_INPUT_BITS,
) -> VerificationResult:
    """Exact first-order glitch-extended probing verification.

    Enumerates all share/mask assignments, derives every wire's
    glitch-extended probe, tests each probe's exact independence of the
    secrets, and returns the verdict with counterexamples for every
    leaking probe.
    """
    tab = tabulate_probes(
        spec, wires=wires, chunk_size=chunk_size, max_input_bits=max_input_bits
    )
    leaks = [_leaking_probe(tab, w) for w in tab.leaking_wires]
    return VerificationResult(
        gadget=spec.name,
        n_input_bits=spec.n_input_bits,
        n_assignments=tab.n_assignments,
        secrets=spec.secret_names,
        n_probes=len(tab.probes),
        class_size=tab.class_size,
        leaks=leaks,
        elapsed_s=tab.elapsed_s,
    )


def counterexample_vcd(
    spec: GadgetSpec,
    probe: LeakingProbe,
    wires: Optional[Sequence[str]] = None,
) -> str:
    """VCD of the witness assignment's transient activity.

    Re-simulates the leaking probe's witness as a one-trace run and
    dumps its waveforms; the leaking wire is always included so the
    counterexample glitch is front and centre in the viewer.
    """
    waveforms = witness_waveforms(spec, probe.witness)
    if wires is not None:
        wires = list(dict.fromkeys([probe.wire_name, *wires]))
    return to_vcd(spec.circuit, waveforms, wires=wires)


# ----------------------------------------------------------------------
# exact fault sweep (satellite of the faults subsystem)
# ----------------------------------------------------------------------
@dataclass
class VerifySweepPoint:
    """One delay-variation sigma judged by the exact verifier."""

    sigma_ps: float
    n_leaking: int
    leaking_wires: Tuple[str, ...]
    violations: Dict[str, int]
    min_margin_ps: Optional[float]

    @property
    def statically_safe(self) -> bool:
        return not any(self.violations.values())

    @property
    def leaks(self) -> bool:
        return self.n_leaking > 0


@dataclass
class VerifyFaultSweepResult:
    """Sigma vs exact leaking-probe count vs static violation count.

    The static checker predicts the Table I leak from arrival times;
    the verifier *proves* it from distributions.  On a from-reset
    evaluation the two agree wherever a ``y1-not-last`` margin is
    decisively broken; hairline margins (within one gate delay) can be
    statically flagged yet exactly tie-free — which is precisely why
    the exact count is worth having next to the t-score.
    """

    gadget: str
    points: List[VerifySweepPoint]
    fault_seed: int
    elapsed_s: float = 0.0

    @property
    def clean_at_zero(self) -> bool:
        p = self.points[0]
        return p.sigma_ps == 0 and not p.leaks and p.statically_safe

    @property
    def onset_sigma_ps(self) -> Optional[float]:
        """Smallest swept sigma with at least one exact leaking probe."""
        for p in self.points:
            if p.leaks:
                return p.sigma_ps
        return None

    @property
    def monotone_counts(self) -> bool:
        """Leak counts never decrease along the (common-random-numbers)
        sigma ladder once leakage sets in."""
        counts = [p.n_leaking for p in self.points]
        return all(b >= a for a, b in zip(counts, counts[1:]))

    def render(self) -> str:
        lines = [
            f"Exact fault sweep — {self.gadget} "
            f"(fault seed {self.fault_seed}, [{self.elapsed_s:.1f}s])",
            f"{'sigma[ps]':>10} {'min margin':>11} {'y1-viol':>8} "
            f"{'y0-viol':>8} {'leaking':>8} {'verdict':>8}",
        ]
        for p in self.points:
            margin = (
                f"{p.min_margin_ps:10.0f}" if p.min_margin_ps is not None else "         -"
            )
            verdict = (
                "LEAKS" if p.leaks else ("viol." if not p.statically_safe else "clean")
            )
            lines.append(
                f"{p.sigma_ps:10.0f} {margin} "
                f"{p.violations.get('y1-not-last', 0):8d} "
                f"{p.violations.get('y0-not-first', 0):8d} "
                f"{p.n_leaking:8d} {verdict:>8}"
            )
        onset = self.onset_sigma_ps
        lines.append(
            "exact leakage onset: "
            + (f"sigma {onset:g} ps" if onset is not None else "none in sweep")
        )
        if self.points and self.points[-1].leaking_wires:
            shown = ", ".join(self.points[-1].leaking_wires[:6])
            more = len(self.points[-1].leaking_wires) - 6
            lines.append(
                "leaking wires at max sigma: "
                + shown
                + (f" (+{more} more)" if more > 0 else "")
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "schema": "verify_fault_sweep/v1",
            "gadget": self.gadget,
            "fault_seed": self.fault_seed,
            "elapsed_s": self.elapsed_s,
            "clean_at_zero": self.clean_at_zero,
            "onset_sigma_ps": self.onset_sigma_ps,
            "points": [
                {
                    "sigma_ps": p.sigma_ps,
                    "n_leaking": p.n_leaking,
                    "leaking_wires": list(p.leaking_wires),
                    "violations": p.violations,
                    "min_margin_ps": p.min_margin_ps,
                }
                for p in self.points
            ],
        }


def verify_fault_sweep(
    spec: Optional[GadgetSpec] = None,
    sigmas: Sequence[float] = (0, 150, 300, 450, 600),
    fault_seed: int = 1,
    distribution: str = "gaussian",
    n_instances: int = 4,
    n_luts: int = 2,
    chunk_size: int = 1 << 14,
    max_input_bits: int = MAX_INPUT_BITS,
) -> VerifyFaultSweepResult:
    """Delay-variation sweep judged by exact leaking-probe counts.

    Per sigma: perturb the gadget's gate delays with
    :func:`repro.faults.models.delay_variation` (seed-only direction —
    common random numbers, margins erode linearly), then run the exact
    verifier on the *faulted* circuit next to the static ordering
    checker.  Default device under test: the secAND2-PD bank of
    :func:`repro.faults.sweep.build_pd_bank` with all four shares
    applied at t=0, so the DelayUnits alone provide the protection —
    the exact analogue of the TVLA margin-erosion sweep.
    """
    from ..faults.models import delay_variation

    if spec is None:
        from .presets import pd_bank_spec

        spec = pd_bank_spec(n_instances=n_instances, n_luts=n_luts)
    t0 = time.perf_counter()
    points: List[VerifySweepPoint] = []
    for sigma in sigmas:
        faulted = spec.with_circuit(
            delay_variation(
                spec.circuit, sigma, seed=fault_seed, distribution=distribution
            ),
            name=f"{spec.name} sigma={sigma:g}ps",
        )
        result = verify(
            faulted, chunk_size=chunk_size, max_input_bits=max_input_bits
        )
        margin = min_ordering_margin(faulted.circuit)
        points.append(
            VerifySweepPoint(
                sigma_ps=float(sigma),
                n_leaking=result.n_leaking,
                leaking_wires=tuple(p.wire_name for p in result.leaks),
                violations=count_violations(faulted.circuit),
                min_margin_ps=margin.worst_ps if margin else None,
            )
        )
    return VerifyFaultSweepResult(
        gadget=spec.name,
        points=points,
        fault_seed=fault_seed,
        elapsed_s=time.perf_counter() - t0,
    )
