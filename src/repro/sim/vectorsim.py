"""Vectorised event-driven glitch simulator.

This is the workhorse behind every leakage experiment: it simulates N
independent stimuli (traces) of one circuit simultaneously, with
transition-accurate timing, so a full fixed-vs-random TVLA campaign is a
handful of batched runs instead of millions of scalar simulations.

Timing model
------------
Transport delay.  When any input of a gate changes at time ``t`` the
gate re-evaluates with the wire values valid at ``t`` and schedules its
(possibly unchanged) output value for time ``t + gate.delay_ps``.
Different arrival times of a gate's inputs therefore produce exactly the
transient output transitions — *glitches* — whose data dependence the
paper exploits and defends against (Sec. II).

Vectorisation trick
-------------------
Because cell delays are data-independent, the set of *potential* event
times is identical across traces.  We therefore schedule gate
evaluations deterministically (whenever an input might have changed) and
apply the value updates per-trace with numpy boolean arrays; traces in
which nothing toggled simply contribute no power.  This makes the
simulation exact per trace while costing one numpy op per gate
evaluation instead of one per (gate, trace).

Schedule compilation
--------------------
The same data independence makes the *control flow* of ``settle``
identical across batches: the first call with a given input-event
timing pattern compiles it into a levelised program via
:mod:`repro.sim.compiled`, and subsequent calls replay it as a few
numpy block ops per dataflow level (no heap, no per-event dicts) with
transition-for-transition identical results.  The interpreted loop
stays as the differential oracle: pass ``compile_schedules=False`` to
force it.

Recording
---------
Both paths hand a settle's live transitions, in time order, to the
recorder's sink in one call (:func:`repro.sim.power.toggle_sink`).

Packed trace lanes
------------------
``pack_traces=True`` (or ``"auto"``, which engages at 64+ traces)
stores wire state as ``uint64`` lanes of 64 traces each
(:mod:`repro.sim.bitpack`): every gate evaluation and toggle mask
becomes a bitwise op on 64x less data, while liveness guards, event
accounting and the recorded power stay bit-identical to the boolean
engine.  :class:`~repro.sim.power.TransientRecorder` needs the boolean
per-wire transient stream and is refused under packing.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.circuit import Circuit
from .bitpack import (
    n_lanes,
    pack_bool,
    pack_scalar,
    resolve_pack_traces,
    unpack_bool,
)
from ..obs.trace import trace
from .compiled import lookup_or_compile, replay
from .power import PowerRecorder, default_weights, toggle_sink

__all__ = ["VectorSimulator", "InputEvent", "SimulationError", "budget_error"]

#: (time_ps, wire_id, new_values) — new_values is a (n_traces,) bool array
#: or a scalar bool broadcast to all traces.
InputEvent = Tuple[int, int, "np.ndarray | bool"]


class SimulationError(RuntimeError):
    """Raised when the event budget is exhausted (oscillating circuit).

    Attributes:
        time_ps: Simulation instant at which the budget ran out.
        budget: The exhausted event budget (``max_events``).
        wires: Names of the wires switching at that instant — for a
            genuine oscillation these are the wires of the loop.
    """

    def __init__(
        self,
        message: str,
        *,
        time_ps: "float | None" = None,
        budget: Optional[int] = None,
        wires: Sequence[str] = (),
    ):
        super().__init__(message)
        self.time_ps = time_ps
        self.budget = budget
        self.wires = tuple(wires)


def budget_error(circuit, t, max_events: int, wires) -> SimulationError:
    """Build the budget-exhaustion error for both simulation engines.

    ``wires`` are the wire ids updating at instant ``t``; their names
    identify the oscillating region of the circuit.
    """
    if circuit is not None:
        name = circuit.name
        names = [circuit.wire_name(int(w)) for w in list(wires)[:8]]
    else:  # pragma: no cover - diagnostics without a circuit handle
        name = ""
        names = []
    suffix = " ..." if len(wires) > 8 else ""
    return SimulationError(
        f"event budget of {max_events} exhausted at t={t} in {name!r}; "
        f"oscillating wires: {', '.join(names) or '?'}{suffix}",
        time_ps=t,
        budget=max_events,
        wires=names,
    )


class VectorSimulator:
    """Simulates ``n_traces`` stimuli of ``circuit`` in parallel.

    The simulator owns the wire state between calls, so sequential
    behaviour (values persisting across clock cycles, the paper's
    "inputs are not reset between computations" scenarios) falls out
    naturally: state only changes through events.
    """

    def __init__(
        self,
        circuit: Circuit,
        n_traces: int,
        compile_schedules: bool = True,
        allow_loops: bool = False,
        pack_traces: "bool | str" = False,
    ):
        """``allow_loops=True`` admits circuits with combinational
        feedback (ring oscillators, latches): the event-driven
        :meth:`settle` simulates them faithfully until the event budget
        cuts a genuine oscillation off with a :class:`SimulationError`.
        Zero-delay :meth:`evaluate_combinational` still needs a
        topological order and keeps rejecting loops.

        ``pack_traces`` selects the bit-packed execution mode (see the
        module docstring): ``False`` (default) keeps boolean wire
        state, ``True`` packs 64 traces per ``uint64`` lane, ``"auto"``
        packs when ``n_traces >= 64``."""
        circuit.check(allow_loops=allow_loops)
        self.circuit = circuit
        self.n_traces = n_traces
        self.compile_schedules = compile_schedules
        self.packed = resolve_pack_traces(pack_traces, n_traces)
        self.n_lanes = n_lanes(n_traces) if self.packed else n_traces
        if self.packed:
            self.values = np.zeros(
                (circuit.n_wires, self.n_lanes), dtype=np.uint64
            )
        else:
            self.values = np.zeros((circuit.n_wires, n_traces), dtype=bool)
        self._fanout = circuit.fanout_map()
        # Fanout restricted to combinational gates: FF inputs are
        # sampled by the clocking harness, not propagated continuously.
        self._comb_fanout: Dict[int, List[int]] = {}
        for wire, readers in self._fanout.items():
            comb = [gi for gi in readers if not circuit.gates[gi].is_ff]
            if comb:
                self._comb_fanout[wire] = comb
        self.weights = default_weights(self._fanout, circuit.n_wires)
        self.events_processed = 0

    # ------------------------------------------------------------------
    def reset_state(self, value: bool = False) -> None:
        """Force every wire to ``value`` without generating events."""
        if self.packed:
            self.values[:] = pack_scalar(value, 1)[0]
        else:
            self.values[:] = value

    def wire_values(self, wire: int) -> np.ndarray:
        """Current boolean values of a wire.

        Boolean engine: a ``(n_traces,)`` view (do not mutate).  Packed
        engine: an unpacked ``(n_traces,)`` copy.
        """
        if self.packed:
            return unpack_bool(self.values[wire], self.n_traces)
        return self.values[wire]

    def packed_wire_values(self, wire: int) -> np.ndarray:
        """Raw lane row of a wire in packed mode (view, do not mutate)."""
        if not self.packed:
            raise RuntimeError("simulator is not packed (pack_traces=False)")
        return self.values[wire]

    def output_values(self) -> Dict[str, np.ndarray]:
        return {
            n: self.wire_values(w).copy() if not self.packed
            else self.wire_values(w)
            for n, w in self.circuit.outputs.items()
        }

    # ------------------------------------------------------------------
    def _coerce(self, vals: "np.ndarray | bool") -> np.ndarray:
        if self.packed:
            if isinstance(vals, np.ndarray):
                if vals.dtype == np.uint64 and vals.shape == (self.n_lanes,):
                    return vals  # already packed (harness FF events)
                if vals.shape != (self.n_traces,):
                    raise ValueError(
                        f"expected shape ({self.n_traces},) bool or "
                        f"({self.n_lanes},) uint64, got {vals.shape} "
                        f"{vals.dtype}"
                    )
                return pack_bool(vals.astype(bool, copy=False))
            return pack_scalar(bool(vals), self.n_lanes)
        if isinstance(vals, np.ndarray):
            if vals.shape != (self.n_traces,):
                raise ValueError(
                    f"expected shape ({self.n_traces},), got {vals.shape}"
                )
            return vals.astype(bool, copy=False)
        return np.full(self.n_traces, bool(vals))

    def settle(
        self,
        input_events: Iterable[InputEvent] = (),
        recorder: Optional[PowerRecorder] = None,
        t_offset: int = 0,
        max_events: Optional[int] = None,
    ) -> int:
        """Apply input events and propagate until quiescent.

        Args:
            input_events: ``(time_ps, wire, new_values)`` tuples; times
                are relative to the start of this call.
            recorder: Optional power recorder; receives every transition
                batch at absolute time ``t_offset + t``.
            t_offset: Absolute time of this call's t=0 (for binning).
            max_events: Event budget; default ``64 * n_gates + 64``.

        Returns:
            The relative time of the last processed event (settle time).
        """
        gates = self.circuit.gates
        if max_events is None:
            max_events = 64 * max(1, len(gates)) + 64
        if (
            self.packed
            and recorder is not None
            and getattr(recorder, "requires_transients", False)
        ):
            raise RuntimeError(
                f"{type(recorder).__name__} needs the boolean per-wire "
                "transient stream; construct the simulator with "
                "pack_traces=False"
            )
        events = [(t, wire, self._coerce(vals)) for t, wire, vals in input_events]
        sink = toggle_sink(recorder, self.n_traces)

        if self.compile_schedules:
            program = lookup_or_compile(
                self.circuit,
                self._comb_fanout,
                tuple((t, wire) for t, wire, _ in events),
            )
            if program is not None:
                with trace("sim.replay", n_events=len(events)):
                    last_t, n_evals = replay(
                        program,
                        self.values,
                        [vals for _, _, vals in events],
                        sink,
                        t_offset,
                        max_events,
                        self.circuit,
                    )
                self.events_processed += n_evals
                return last_t

        # pending[t] = {wire: new_value_array}
        pending: Dict[int, Dict[int, np.ndarray]] = {}
        heap: List[int] = []
        queued = set()

        def schedule(t, wire: int, vals: np.ndarray) -> None:
            slot = pending.setdefault(t, {})
            slot[wire] = vals
            if t not in queued:
                queued.add(t)
                heapq.heappush(heap, t)

        for t, wire, vals in events:
            schedule(t, wire, vals)

        last_t = 0
        budget = max_events
        values = self.values
        fanout = self._comb_fanout
        # live transitions in recording order, for one sink call
        rec_t: List[float] = []
        rec_w: List[int] = []
        rec_tog: List[np.ndarray] = []
        rec_new: List[np.ndarray] = []
        while heap:
            t = heapq.heappop(heap)
            queued.discard(t)
            updates = pending.pop(t)
            last_t = t
            # 1. Apply wire updates, record transitions, find affected gates.
            affected: List[int] = []
            for wire, new in updates.items():
                toggled = values[wire] ^ new
                if not toggled.any():
                    continue
                if sink is not None:
                    rec_t.append(t_offset + t)
                    rec_w.append(wire)
                    rec_tog.append(toggled)
                    rec_new.append(new)
                values[wire] = new
                affected.extend(fanout.get(wire, ()))
            # 2. Re-evaluate affected gates once each; schedule outputs.
            for gi in dict.fromkeys(affected):
                budget -= 1
                if budget < 0:
                    raise budget_error(
                        self.circuit, t, max_events, list(updates)
                    )
                self.events_processed += 1
                g = gates[gi]
                ins = g.inputs
                if len(ins) == 2:
                    out = g.cell.evaluate(values[ins[0]], values[ins[1]])
                elif len(ins) == 1:
                    src = values[ins[0]]
                    out = g.cell.evaluate(src)
                    if out is src:
                        # Identity cells (BUF/DELAY) return their input
                        # row *view*; snapshot it, otherwise the pending
                        # value would alias live wire state and deliver
                        # the wire's future value instead of its value
                        # at evaluation time.
                        out = out.copy()
                else:
                    out = g.cell.evaluate(*(values[w] for w in ins))
                schedule(t + g.delay_ps, g.output, out)
        if rec_w:
            sink(
                np.asarray(rec_t),
                np.asarray(rec_w, dtype=np.intp),
                np.stack(rec_tog),
                np.stack(rec_new),
            )
        return last_t

    # ------------------------------------------------------------------
    def evaluate_combinational(
        self, input_values: Dict[int, "np.ndarray | bool"]
    ) -> None:
        """Zero-delay functional evaluation (no glitches, no power).

        Sets the given input wires and computes every combinational gate
        once in topological order.  Used for functional verification
        where timing is irrelevant.
        """
        for wire, vals in input_values.items():
            self.values[wire] = self._coerce(vals)
        for gi in self.circuit.comb_order():
            g = self.circuit.gates[gi]
            self.values[g.output] = g.cell.evaluate(
                *(self.values[w] for w in g.inputs)
            )
