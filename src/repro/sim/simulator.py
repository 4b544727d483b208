"""Scalar reference simulator with full waveform recording.

The vectorised simulator (:mod:`repro.sim.vectorsim`) is optimised for
throughput and only exposes transition counts.  For debugging,
schematics-level reasoning (e.g. reproducing the hand analysis of
Sec. II-B: "the XOR gate outputting z0 toggles from !y1 to y0 XOR 1"),
and cross-checking the vector engine, this module simulates a single
stimulus and records the complete waveform of every wire.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..netlist.circuit import Circuit
from .compiled import circuit_maps

__all__ = ["Waveform", "ScalarSimulator"]


@dataclass
class Waveform:
    """History of one wire: list of (time_ps, value) change points."""

    initial: bool = False
    changes: List[Tuple[int, bool]] = field(default_factory=list)

    def value_at(self, t: int) -> bool:
        v = self.initial
        for ct, cv in self.changes:
            if ct > t:
                break
            v = cv
        return v

    @property
    def n_transitions(self) -> int:
        return len(self.changes)


class ScalarSimulator:
    """Single-stimulus event-driven simulator with waveforms.

    Uses the same transport-delay semantics as
    :class:`~repro.sim.vectorsim.VectorSimulator`, so the two engines
    are cross-checkable transition for transition.
    """

    def __init__(self, circuit: Circuit):
        circuit.check()
        self._comb_fanout = circuit_maps(circuit)[0]
        self.circuit = circuit
        self.values: Dict[int, bool] = {w: False for w in range(circuit.n_wires)}
        self.waveforms: Dict[int, Waveform] = {
            w: Waveform() for w in range(circuit.n_wires)
        }
        self._now = 0

    def reset_state(self, value: bool = False) -> None:
        for w in self.values:
            self.values[w] = value
        self.waveforms = {
            w: Waveform(initial=value) for w in range(self.circuit.n_wires)
        }
        self._now = 0

    def evaluate_combinational(self, input_values=None) -> None:
        """Zero-delay functional evaluation to a consistent state.

        Sets inputs, evaluates every combinational gate once in
        topological order, and resets the waveforms so the consistent
        state becomes the recorded initial condition (no transitions).
        Mirrors :meth:`VectorSimulator.evaluate_combinational`.
        """
        import numpy as np

        for w, v in (input_values or {}).items():
            self.values[w] = bool(v)
        for gi in self.circuit.comb_order():
            g = self.circuit.gates[gi]
            ins = [np.array([self.values[w]]) for w in g.inputs]
            self.values[g.output] = bool(g.cell.evaluate(*ins)[0])
        self.waveforms = {
            w: Waveform(initial=self.values[w])
            for w in range(self.circuit.n_wires)
        }

    def settle(
        self,
        input_events: Iterable[Tuple[int, int, bool]] = (),
        t_offset: int = 0,
        max_events: int = 100000,
    ) -> int:
        """Apply ``(t, wire, value)`` events and propagate to quiescence."""
        gates = self.circuit.gates
        pending: Dict[int, Dict[int, bool]] = {}
        heap: List[int] = []
        queued = set()

        def schedule(t: int, wire: int, val: bool) -> None:
            pending.setdefault(t, {})[wire] = val
            if t not in queued:
                queued.add(t)
                heapq.heappush(heap, t)

        for t, wire, val in input_events:
            schedule(int(t), wire, bool(val))

        last_t = 0
        budget = max_events
        while heap:
            t = heapq.heappop(heap)
            queued.discard(t)
            updates = pending.pop(t)
            last_t = t
            affected: List[int] = []
            for wire, new in updates.items():
                if self.values[wire] == new:
                    continue
                self.values[wire] = new
                self.waveforms[wire].changes.append((t_offset + t, new))
                affected.extend(self._comb_fanout.get(wire, ()))
            for gi in dict.fromkeys(affected):
                budget -= 1
                if budget < 0:
                    raise RuntimeError("event budget exhausted")
                g = gates[gi]
                import numpy as np

                ins = [np.array([self.values[w]]) for w in g.inputs]
                out = bool(g.cell.evaluate(*ins)[0])
                schedule(t + g.delay_ps, g.output, out)
        self._now = t_offset + last_t
        return last_t

    # ------------------------------------------------------------------
    def toggle_counts(self) -> Dict[str, int]:
        """Transitions per wire name (for glitch-count assertions)."""
        return {
            self.circuit.wire_name(w): wf.n_transitions
            for w, wf in self.waveforms.items()
            if wf.n_transitions
        }

    def total_toggles(self) -> int:
        return sum(wf.n_transitions for wf in self.waveforms.values())

    def waveform_of(self, name: str) -> Waveform:
        return self.waveforms[self.circuit.wire(name)]
