"""Waveforms of one trace and their VCD export.

A one-trace :class:`~repro.sim.vectorsim.VectorSimulator` run with a
:class:`~repro.sim.power.TransientRecorder` holds every transition of
every wire; :func:`trace_waveforms` turns its events into per-wire
:class:`Waveform` histories and :func:`to_vcd` dumps them as a Value
Change Dump file, viewable in GTKWave &co — the standard way to eyeball
a glitch: load the secAND2 trace and watch ``z0`` pulse when ``x0``
arrives last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..netlist.circuit import Circuit

__all__ = ["Waveform", "trace_waveforms", "to_vcd"]


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


def trace_waveforms(events, final: Sequence, trace: int = 0) -> Dict[int, Waveform]:
    """Every wire's waveform in trace ``trace`` of a recorded run.

    Args:
        events: A :class:`~repro.sim.power.TransientRecorder`'s events.
        final: Each wire's value in that trace at the end of the run
            (e.g. ``sim.values[:, trace]``).  A recorded transition
            flips its wire, so a wire starts at the complement of its
            first change, or at its final value if it never changed.
        trace: Which trace of the run.
    """
    waves = {w: Waveform() for w in range(len(final))}
    for t, wire, toggled, new in events:
        if toggled[trace]:
            waves[wire].changes.append((t, bool(new[trace])))
    for w, wf in waves.items():
        wf.initial = not wf.changes[0][1] if wf.changes else bool(final[w])
    return waves


def _identifiers() -> Iterable[str]:
    """Short printable-ASCII VCD identifiers: !, ", #, ... !!, !\" ..."""
    alphabet = [chr(c) for c in range(33, 127)]
    single = list(alphabet)
    yield from single
    for a in alphabet:
        for b in alphabet:
            yield a + b


def to_vcd(
    circuit: Circuit,
    waveforms: Dict[int, Waveform],
    wires: Optional[Iterable[str]] = None,
    timescale: str = "1ps",
    module: str = "dut",
) -> str:
    """Render per-wire waveforms as VCD text.

    Args:
        circuit: The simulated circuit (wire names).
        waveforms: Wire id -> :class:`Waveform`, every wire of the
            circuit (:func:`trace_waveforms`).
        wires: Wire names to dump (default: every named wire that
            toggled, plus all primary inputs and outputs).
        timescale: VCD timescale directive.
        module: Scope name.
    """
    if wires is None:
        chosen: List[int] = list(circuit.inputs)
        chosen += list(circuit.outputs.values())
        chosen += [
            w
            for w, wf in waveforms.items()
            if wf.n_transitions and w not in chosen
        ]
    else:
        chosen = [circuit.wire(n) for n in wires]
    # stable order, unique
    chosen = list(dict.fromkeys(chosen))

    ids: Dict[int, str] = {}
    for w, ident in zip(chosen, _identifiers()):
        ids[w] = ident

    lines = [
        "$date repro.sim.vcd $end",
        f"$timescale {timescale} $end",
        f"$scope module {module} $end",
    ]
    for w in chosen:
        name = circuit.wire_name(w).replace(" ", "_")
        lines.append(f"$var wire 1 {ids[w]} {name} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    # initial values
    lines.append("#0")
    lines.append("$dumpvars")
    for w in chosen:
        lines.append(f"{int(waveforms[w].initial)}{ids[w]}")
    lines.append("$end")

    # merge change points by time
    events: Dict[int, List[str]] = {}
    for w in chosen:
        for t, v in waveforms[w].changes:
            events.setdefault(int(t), []).append(f"{int(v)}{ids[w]}")
    for t in sorted(events):
        lines.append(f"#{t}")
        lines.extend(events[t])
    return "\n".join(lines) + "\n"
