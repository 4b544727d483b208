"""Glitch-extended probe extraction by exhaustive enumeration.

A *glitch-extended probe* on a wire observes the full transient value
sequence the wire takes while the combinational logic settles — not
just the final value (Sec. II-B: every leakage argument of the paper is
about which transient a gate output passes through, as a function of
input arrival order).  First-order security in the glitch-extended
probing model therefore requires that, for every single wire, the
*distribution of its transient trace* over the uniform mask randomness
is independent of the unshared secrets.

This module derives each wire's probe exactly: it sweeps all ``2^k``
assignments of the gadget's share/mask inputs through the event-driven
simulator (:class:`~repro.sim.vectorsim.VectorSimulator` under a
:class:`~repro.sim.clocking.ClockedHarness`, driven by
:meth:`GadgetSpec.drive`) and records, per assignment, the complete
transition sequence of every wire via
:class:`~repro.sim.power.TransientRecorder`.  The harness runs
``compile_schedules=False``: compiled replay hands the recorder the
same stream, but a gadget is simulated once, so compiling its schedule
would not pay.  Enumeration is vectorised
— each chunk of assignments is one batched simulation — and chunked so
``k`` up to ~20 stays tractable; beyond the budget a
:class:`VerificationBudgetError` is raised instead of silently
sampling.

The observable of one assignment is the sequence of ``(time, value)``
change points of the wire (traces in which a potential event does not
toggle the wire see nothing at that instant).  Because the event
*schedule* is data-independent, an assignment's observable is identical
whichever chunk simulates it, so chunk results merge exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..netlist.circuit import Circuit
from ..netlist.timing import arrival_times
from ..sim.clocking import ClockedHarness
from ..sim.power import TransientRecorder
from ..sim.vcd import Waveform, trace_waveforms

__all__ = [
    "GadgetSpec",
    "ProbeChunk",
    "VerificationBudgetError",
    "iter_probe_chunks",
    "witness_waveforms",
    "MAX_INPUT_BITS",
]

#: Default enumeration budget: refuse gadgets with more than this many
#: share/mask input bits (2^20 assignments ≈ one M-trace batch sweep).
MAX_INPUT_BITS = 20

#: Settling headroom added to the auto-computed clock period.
_PERIOD_MARGIN_PS = 2000


class VerificationBudgetError(RuntimeError):
    """The gadget has too many input bits for exact enumeration.

    Exact verification enumerates all ``2^k`` input assignments; past
    ``max_input_bits`` that is no longer a "fast oracle" but a batch
    job, and silently sampling instead would forfeit the exactness the
    verifier exists for.  Callers can raise the budget explicitly or
    fall back to TVLA (:mod:`repro.leakage`).
    """

    def __init__(self, n_bits: int, max_bits: int):
        super().__init__(
            f"gadget has {n_bits} input bits; exact enumeration is capped "
            f"at {max_bits} (2^{max_bits} assignments). Raise "
            f"max_input_bits to force it, or use TVLA for a statistical "
            f"assessment."
        )
        self.n_bits = n_bits
        self.max_bits = max_bits


@dataclass(frozen=True)
class GadgetSpec:
    """A gadget circuit plus the masking semantics of its inputs.

    The verifier needs to know which primary inputs carry shares of
    which secret, which carry fresh randomness, and when each input
    arrives — that is exactly the information a netlist alone does not
    hold.

    Attributes:
        name: Label used in reports.
        circuit: The netlist under verification.
        secrets: ``(secret_name, (share_input, ...))`` per masked
            variable; the secret's value is the XOR of its shares.
        randoms: Fresh-mask primary inputs (uniform, independent).
        schedule: ``(input_name, t_ps)`` absolute arrival times of the
            input events; inputs not listed arrive at t=0.  Times are
            relative to the first clock edge (cycle boundaries at
            multiples of the period).
        n_cycles: Clock cycles to simulate (2 for the FF/DOM/TI
            gadgets whose register layer adds a cycle of latency).
        period_ps: Clock period; ``None`` auto-sizes it from static
            arrival times plus the schedule span.
    """

    name: str
    circuit: Circuit
    secrets: Tuple[Tuple[str, Tuple[str, ...]], ...]
    randoms: Tuple[str, ...] = ()
    schedule: Tuple[Tuple[str, int], ...] = ()
    n_cycles: int = 1
    period_ps: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def input_bits(self) -> Tuple[str, ...]:
        """Enumerated input names; bit ``j`` of an assignment index is
        the value of ``input_bits[j]``."""
        names: List[str] = []
        for _, shares in self.secrets:
            names.extend(shares)
        names.extend(self.randoms)
        return tuple(names)

    @property
    def n_input_bits(self) -> int:
        return len(self.input_bits)

    @property
    def secret_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.secrets)

    @property
    def n_secret_values(self) -> int:
        return 1 << len(self.secrets)

    def schedule_map(self) -> Dict[str, int]:
        """Arrival time of every input (default 0)."""
        sched = {name: 0 for name in self.input_bits}
        for name, t in self.schedule:
            sched[name] = int(t)
        return sched

    @property
    def resolved_period_ps(self) -> int:
        if self.period_ps is not None:
            return self.period_ps
        latest = max(arrival_times(self.circuit).values(), default=0)
        span = max((t for _, t in self.schedule), default=0)
        return int(latest) + int(span) + _PERIOD_MARGIN_PS

    def validate(self) -> None:
        """Check the spec covers the circuit's inputs exactly once."""
        declared = list(self.input_bits)
        if len(set(declared)) != len(declared):
            raise ValueError(f"{self.name}: input declared twice: {declared}")
        circuit_inputs = {self.circuit.wire_name(w) for w in self.circuit.inputs}
        missing = circuit_inputs - set(declared)
        if missing:
            raise ValueError(
                f"{self.name}: primary inputs not covered by "
                f"secrets/randoms: {sorted(missing)}"
            )
        extra = set(declared) - circuit_inputs
        if extra:
            raise ValueError(
                f"{self.name}: declared inputs not in circuit: {sorted(extra)}"
            )
        unknown = [n for n, _ in self.schedule if n not in circuit_inputs]
        if unknown:
            raise ValueError(f"{self.name}: scheduled unknown inputs {unknown}")
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be >= 1")

    def with_circuit(self, circuit: Circuit, name: Optional[str] = None) -> "GadgetSpec":
        """Same spec over a transformed (e.g. fault-perturbed) circuit.

        Wire names survive :meth:`Circuit.copy`-based transforms
        (:mod:`repro.faults.models`), so secrets/randoms/schedule carry
        over; the auto-computed period is re-derived because the
        transform may have stretched delays.
        """
        return dataclasses.replace(
            self,
            circuit=circuit,
            name=name if name is not None else self.name,
            period_ps=None if self.period_ps is None else self.period_ps,
        )

    def drive(
        self, harness: ClockedHarness, values: Dict[str, np.ndarray], recorder=None
    ) -> None:
        """Run the spec's protocol on a fresh ``harness``: every input
        preloaded to 0 and the logic settled silently (the consistent
        reset condition every experiment in this repo uses), then
        ``values[name]`` applied at each input's scheduled time over
        ``n_cycles`` cycles of ``harness.period_ps``, recorded by
        ``recorder``."""
        circuit = self.circuit
        harness.preload({}, {circuit.wire(name): False for name in self.input_bits})
        period = harness.period_ps
        sched = self.schedule_map()
        for cycle in range(self.n_cycles):
            lo = cycle * period
            events = [
                (t - lo, circuit.wire(name), values[name])
                for name, t in sched.items()
                if lo <= t < lo + period
            ]
            harness.step(events, recorder=recorder)

    # ------------------------------------------------------------------
    def assignment_bits(self, index: np.ndarray) -> Dict[str, np.ndarray]:
        """Input name -> boolean value array for assignment indices."""
        return {
            name: ((index >> j) & 1).astype(bool)
            for j, name in enumerate(self.input_bits)
        }

    def secret_index(self, bits: Dict[str, np.ndarray]) -> np.ndarray:
        """Packed unshared-secret value per assignment (bit j = secret j)."""
        n = next(iter(bits.values())).shape[0] if bits else 0
        out = np.zeros(n, dtype=np.int64)
        for j, (_, shares) in enumerate(self.secrets):
            v = np.zeros(n, dtype=bool)
            for sh in shares:
                v ^= bits[sh]
            out |= v.astype(np.int64) << j
        return out

    def decode_assignment(self, index: int) -> Dict[str, int]:
        """Assignment index -> concrete input values."""
        return {
            name: (int(index) >> j) & 1
            for j, name in enumerate(self.input_bits)
        }

    def decode_secret(self, secret_index: int) -> Dict[str, int]:
        """Packed secret value -> per-secret bits."""
        return {
            name: (int(secret_index) >> j) & 1
            for j, name in enumerate(self.secret_names)
        }


@dataclass
class ProbeChunk:
    """Transient events of one contiguous block of input assignments.

    Attributes:
        base: Global index of the first assignment in the chunk.
        n_traces: Assignments simulated (trace ``i`` = assignment
            ``base + i``).
        secret_index: Packed unshared-secret value per trace.
        events: ``(t_ps, wire, toggled, new)`` in simulation order —
            the potential transition instants shared by all traces;
            ``toggled[i]`` says whether trace ``i`` actually switched.
    """

    base: int
    n_traces: int
    secret_index: np.ndarray
    events: List[Tuple[float, int, np.ndarray, np.ndarray]]


def _run_schedule(
    spec: GadgetSpec, bits: Dict[str, np.ndarray], n: int
) -> Tuple[ClockedHarness, TransientRecorder]:
    """Drive one batch of assignments; return (harness, recorder).

    All traces start from the same settled all-zero state, so the
    recorded transitions are the entire observable.
    """
    harness = ClockedHarness(
        spec.circuit, n, period_ps=spec.resolved_period_ps, compile_schedules=False
    )
    recorder = TransientRecorder(n)
    spec.drive(harness, bits, recorder)
    return harness, recorder


def iter_probe_chunks(
    spec: GadgetSpec,
    chunk_size: int = 1 << 14,
    max_input_bits: int = MAX_INPUT_BITS,
) -> Iterator[ProbeChunk]:
    """Enumerate all ``2^k`` assignments in batched simulations.

    Raises:
        VerificationBudgetError: if the gadget has more than
            ``max_input_bits`` enumerated inputs.
    """
    spec.validate()
    k = spec.n_input_bits
    if k > max_input_bits:
        raise VerificationBudgetError(k, max_input_bits)
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    total = 1 << k
    for base in range(0, total, chunk_size):
        n = min(chunk_size, total - base)
        index = np.arange(base, base + n, dtype=np.int64)
        bits = spec.assignment_bits(index)
        _, recorder = _run_schedule(spec, bits, n)
        yield ProbeChunk(
            base=base,
            n_traces=n,
            secret_index=spec.secret_index(bits),
            events=recorder.events,
        )


def witness_waveforms(
    spec: GadgetSpec, assignment: Dict[str, int]
) -> Dict[int, Waveform]:
    """Re-simulate one concrete assignment; every wire's waveform.

    Ready for :func:`repro.sim.vcd.to_vcd` (the standard way to eyeball
    the counterexample glitch in GTKWave).
    """
    spec.validate()
    bits = {
        name: np.array([bool(assignment[name])]) for name in spec.input_bits
    }
    harness, recorder = _run_schedule(spec, bits, 1)
    return trace_waveforms(recorder.events, harness.sim.values[:, 0])
