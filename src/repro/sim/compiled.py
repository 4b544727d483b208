"""Schedule compiler + levelised replay engine for the vectorised simulator.

Every leakage campaign re-simulates the *same* circuit with the *same*
input-event timing pattern thousands of times — only the per-trace data
changes.  Because cell delays are data-independent, the whole
event-driven control flow of :meth:`VectorSimulator.settle` (which gate
re-evaluates at which instant, where its output lands) is identical
across batches.  The interpreted loop nevertheless re-derives it every
call through a heap and per-event dicts, which is pure-Python overhead.

This module removes that overhead:

* :func:`compile_schedule` runs the scheduling algorithm **once**,
  symbolically, and records the result as a levelised SSA program.
  Every potential wire update gets its own *version* row and every
  potential gate evaluation its own *value* row (no row is reused).
  An update sits one level above the evaluation that produced its
  value and the wire's previous version; an evaluation sits at the
  level of its newest input version.  Thousands of event instants
  collapse into the dataflow depth of the cone (tens of levels).  Rows
  are numbered level by level, so a level is a few flat integer index
  arrays (what it reads) and contiguous row slices (what it writes):
  the updates, plus one block per cell function over all its
  evaluations at that level;
* :func:`replay` executes that program as a few fused numpy block ops
  per level over ``(rows, lanes)`` — boolean rows or ``uint64`` lanes
  (:mod:`repro.sim.bitpack`) through the same kernel — and hands the
  settle's live toggles to the recorder's sink in one call.

Exactness
---------
Replay is *transition-for-transition identical* to the interpreted
path, not merely equivalent on average.  The compiled program is a
conservative superset (every *potential* evaluation), and replay keeps
the interpreter's data-dependent guards as vectorised masks:

* an update whose producing evaluation did not run is invalid: its
  version row keeps the old value (no toggle), mirroring "no event was
  scheduled";
* an evaluation is valid only if one of its trigger updates toggled in
  at least one trace, mirroring the interpreter's ``toggled.any()``
  skip — so wires whose inputs never toggle stay stale, exactly as in
  the interpreter, even from an inconsistent reset state;
* the recorder receives the live updates in the interpreter's
  recording order (time, then update order within an instant), which
  the coupling model's coincidence window needs;
* ``events_processed`` counts the valid evaluations, the settle time
  is the instant of the last valid update, and an exhausted event
  budget raises the interpreter's error at the same instant, found
  from the cumulative count of valid evaluations in time order.

Cache invalidation
------------------
Compiled programs are cached per circuit, keyed by the input-event
timing pattern ``((t0, wire0), (t1, wire1), ...)``.  The cache is
dropped whenever the circuit's structural token changes
(:meth:`Circuit.structural_token` — gate count, wire count *and* a
per-gate delay fingerprint) and is bounded LRU.  Per-instance routing
jitter is baked into the gate delays at build time, so a compiled
schedule stays valid for the lifetime of a build, exactly like a
placed-and-routed bitstream; a delay edit (a fault-perturbed copy from
:mod:`repro.faults`) changes the token and starts from an empty cache.

Process model
-------------
The cache lives in a module-level registry keyed by circuit *identity*
(a ``WeakKeyDictionary``), never as circuit state.  That makes it

* **fork-safe** — a forked campaign worker inherits the parent's warm
  cache through copy-on-write memory, so batches replay instead of
  recompiling (see :func:`repro.leakage.acquisition._init_worker`);
* **spawn-safe** — pickling a circuit (e.g. the trace source shipped
  to a ``spawn`` pool) never drags compiled programs, which hold
  unpicklable numpy/closure state, through the pickle stream; a
  spawned worker simply starts cold and warms itself once.

Campaign runners can :func:`pin_schedule_cache` a warmed circuit: any
structural edit afterwards makes the next lookup raise
:class:`StaleScheduleError` instead of silently recompiling — a
mid-campaign netlist edit is a bug (the shards would mix two different
devices), not a cache miss.
"""

from __future__ import annotations

import heapq
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics

__all__ = [
    "CompiledSchedule",
    "StaleScheduleError",
    "compile_schedule",
    "lookup_or_compile",
    "schedule_cache_info",
    "schedule_cache_counters",
    "pin_schedule_cache",
    "unpin_schedule_cache",
    "replay",
]

#: Bound on the number of *potential* gate evaluations a compiled
#: schedule may contain, as a multiple of the interpreter's default
#: event budget.  Patterns exceeding it fall back to interpretation.
_COMPILE_BUDGET_FACTOR = 1

#: Maximum number of distinct timing patterns cached per circuit.
_CACHE_CAPACITY = 128


@dataclass
class _Block:
    """All evaluations of one cell function at one level."""

    evaluate: Callable[..., np.ndarray]
    in_rows: np.ndarray  #: (n_pins, g) rows of the input versions
    out: slice  #: the g value rows written
    trig: np.ndarray  #: new-version rows of the triggering updates, flat
    #: ``reduceat`` starts of each evaluation's triggers in ``trig``;
    #: ``None`` when every evaluation has exactly one trigger.
    starts: Optional[np.ndarray]


@dataclass
class _Level:
    """One dataflow level: its wire updates, then its evaluations."""

    prev: np.ndarray  #: row of each updated wire's previous version
    val: np.ndarray  #: row of each scheduled value
    dst: slice  #: rows of the new versions
    blocks: List[_Block]


@dataclass
class CompiledSchedule:
    """A replayable levelised program for one timing pattern.

    Rows ``[0, n_inputs)`` hold the input events and the next
    ``len(init_wires)`` rows the seeded wire state.  The per-update and
    per-evaluation arrays are in the interpreter's order (event instant,
    then insertion order).
    """

    levels: List[_Level]
    n_rows: int
    n_inputs: int
    init_wires: np.ndarray  #: wires seeded after the input rows
    out_rows: np.ndarray  #: final version row of each updated wire ...
    out_wires: np.ndarray  #: ... written back to these wires
    #: event instants in processing order, as the Python values the
    #: interpreter reports (settle time, budget errors)
    times: List[float]
    step_times: np.ndarray  #: the same instants as an array, for the sink
    upd_step: np.ndarray  #: instant index of each update
    upd_wire: np.ndarray  #: wire of each update
    upd_val: np.ndarray  #: value row of each update
    upd_prev: np.ndarray  #: previous-version row of each update
    upd_dst: np.ndarray  #: new-version row of each update
    eval_rows: np.ndarray  #: value row of each evaluation
    eval_step: np.ndarray  #: instant index of each evaluation
    n_potential_evals: int  #: size of the conservative schedule

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"CompiledSchedule({len(self.times)} instants, "
            f"{len(self.levels)} levels, "
            f"{self.n_potential_evals} potential evals, "
            f"{self.n_rows} rows)"
        )


def _ids(values) -> np.ndarray:
    return np.asarray(values, dtype=np.intp)


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def compile_schedule(
    circuit,
    comb_fanout: Dict[int, List[int]],
    pattern: Sequence[Tuple[float, int]],
    max_evals: Optional[int] = None,
) -> Optional[CompiledSchedule]:
    """Run the event scheduler symbolically and record its dataflow.

    Mirrors ``VectorSimulator.settle`` exactly — same heap order, same
    pending overwrite rule (last write wins, original insertion
    position kept), same fanout-dedup order — but propagates *potential*
    changes instead of values, then levelises the resulting program.

    Args:
        circuit: The netlist (delays already include routing jitter).
        comb_fanout: wire id -> combinational reader gate indices (FF
            inputs excluded, as in the simulator).
        pattern: ``(time, wire)`` of each input event, in event order.
        max_evals: Abort threshold; returns ``None`` when the
            conservative schedule grows past it (oscillating or
            pathological patterns fall back to interpretation).

    Returns:
        The compiled program, or ``None`` if compilation was abandoned.
    """
    gates = circuit.gates
    if max_evals is None:
        max_evals = _COMPILE_BUDGET_FACTOR * (64 * max(1, len(gates)) + 64)

    row_level: List[int] = []

    def new_row(level: int) -> int:
        row_level.append(level)
        return len(row_level) - 1

    init_rows: List[int] = []
    init_wires: List[int] = []
    current: Dict[int, int] = {}  # wire -> row of its newest version

    def version(wire: int) -> int:
        row = current.get(wire)
        if row is None:
            row = current[wire] = new_row(0)
            init_rows.append(row)
            init_wires.append(wire)
        return row

    # pending[t] = {wire: value row} — dict preserves the interpreter's
    # insertion order; overwriting keeps the original position, exactly
    # like the interpreter's ``slot[wire] = vals``.
    pending: Dict[float, Dict[int, int]] = {}
    heap: List[float] = []
    queued: set = set()

    def schedule(t: float, wire: int, row: int) -> None:
        pending.setdefault(t, {})[wire] = row
        if t not in queued:
            queued.add(t)
            heapq.heappush(heap, t)

    input_rows = [new_row(0) for _ in pattern]
    for (t, wire), row in zip(pattern, input_rows):
        schedule(t, wire, row)

    times: List[float] = []
    upd_step: List[int] = []
    upd_wire: List[int] = []
    upd_val: List[int] = []
    upd_prev: List[int] = []
    upd_dst: List[int] = []
    # per evaluation: instant, cell function, input rows, value row,
    # trigger update ids
    evals: List[Tuple[int, Callable, List[int], int, List[int]]] = []
    while heap:
        t = heapq.heappop(heap)
        queued.discard(t)
        updates = pending.pop(t)
        step = len(times)
        times.append(t)
        updated: Dict[int, int] = {}  # wire -> update id at this instant
        for wire, val in updates.items():
            prev = version(wire)
            dst = new_row(1 + max(row_level[val], row_level[prev]))
            updated[wire] = len(upd_wire)
            upd_step.append(step)
            upd_wire.append(wire)
            upd_val.append(val)
            upd_prev.append(prev)
            upd_dst.append(dst)
            current[wire] = dst

        affected: List[int] = []
        for w in updates:
            affected.extend(comb_fanout.get(w, ()))
        for gi in dict.fromkeys(affected):
            if len(evals) >= max_evals:
                return None
            g = gates[gi]
            ins = [version(w) for w in g.inputs]
            out = new_row(max(row_level[r] for r in ins))
            trig = [updated[w] for w in dict.fromkeys(g.inputs) if w in updated]
            evals.append((step, g.cell.evaluate, ins, out, trig))
            schedule(t + g.delay_ps, g.output, out)

    # Levelise.  Rows are renumbered so that every level's new versions
    # and every block's values form one contiguous slice: input events
    # first, then the seeded wire state, then level by level.
    n_levels = 1 + max((row_level[r] for r in upd_dst), default=0)
    level_updates: List[List[int]] = [[] for _ in range(n_levels)]
    for u, dst in enumerate(upd_dst):
        level_updates[row_level[dst]].append(u)
    level_blocks: List[Dict[Tuple[Callable, int], List[int]]] = [
        {} for _ in level_updates
    ]
    for e, (_, fn, ins, out, _) in enumerate(evals):
        level_blocks[row_level[out]].setdefault((fn, len(ins)), []).append(e)

    # A single pass suffices: everything a level reads was numbered at
    # a lower level (or is level 0), and every trigger of an evaluation
    # is an update at or below its level.
    renum = np.empty(len(row_level), dtype=np.intp)
    n_numbered = 0

    def number(old_rows) -> slice:
        nonlocal n_numbered
        lo = n_numbered
        n_numbered += len(old_rows)
        renum[old_rows] = np.arange(lo, n_numbered)
        return slice(lo, n_numbered)

    number(input_rows)
    number(init_rows)
    upd_prev_a, upd_val_a, upd_dst_a = _ids(upd_prev), _ids(upd_val), _ids(upd_dst)
    levels: List[_Level] = []
    for lvl, members in enumerate(level_updates):
        if not members:
            continue  # no update, hence no evaluation, at this level
        u = _ids(members)
        dst = number(upd_dst_a[u])
        blocks = []
        for (fn, _), group in level_blocks[lvl].items():
            trigs = [renum[upd_dst_a[evals[e][4]]] for e in group]
            starts = None
            if any(len(tr) > 1 for tr in trigs):
                starts = _ids(np.cumsum([0] + [len(tr) for tr in trigs[:-1]]))
            blocks.append(
                _Block(
                    evaluate=fn,
                    in_rows=renum[_ids([evals[e][2] for e in group]).T],
                    out=number([evals[e][3] for e in group]),
                    trig=np.concatenate(trigs),
                    starts=starts,
                )
            )
        levels.append(
            _Level(
                prev=renum[upd_prev_a[u]],
                val=renum[upd_val_a[u]],
                dst=dst,
                blocks=blocks,
            )
        )
    written = dict.fromkeys(upd_wire)
    return CompiledSchedule(
        levels=levels,
        n_rows=len(row_level),
        n_inputs=len(input_rows),
        init_wires=_ids(init_wires),
        out_rows=renum[_ids([current[w] for w in written])],
        out_wires=_ids(list(written)),
        times=times,
        step_times=np.asarray(times),
        upd_step=_ids(upd_step),
        upd_wire=_ids(upd_wire),
        upd_val=renum[upd_val_a],
        upd_prev=renum[upd_prev_a],
        upd_dst=renum[upd_dst_a],
        eval_rows=renum[_ids([e[3] for e in evals])],
        eval_step=_ids([e[0] for e in evals]),
        n_potential_evals=len(evals),
    )


# ----------------------------------------------------------------------
# per-circuit cache (process-local registry)
# ----------------------------------------------------------------------
class StaleScheduleError(RuntimeError):
    """A pinned schedule cache was invalidated by a structural edit.

    Raised by :func:`lookup_or_compile` when a circuit that was pinned
    (typically by a campaign warm-up) no longer matches its structural
    token: silently recompiling would let a campaign mix shards from
    two *different* devices under test.
    """


@dataclass
class _CircuitCache:
    """Schedule cache of one circuit build, plus usage counters."""

    token: Tuple
    programs: "OrderedDict" = field(default_factory=OrderedDict)
    hits: int = 0
    compiles: int = 0
    pinned: bool = False


#: circuit identity -> its schedule cache.  Keyed weakly so dropping a
#: circuit drops its programs; never stored on the circuit itself (see
#: "Process model" in the module docstring).
_CACHES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: Registry metric names for the per-process totals across all
#: circuits (backed by :mod:`repro.obs.metrics`).  Campaign workers
#: snapshot these around each batch to report compile-vs-replay
#: behaviour.
_METRIC_HITS = "schedule_cache.hits"
_METRIC_COMPILES = "schedule_cache.compiles"


def _structural_token(circuit):
    token = getattr(circuit, "structural_token", None)
    if token is not None:
        return token()
    return (len(circuit.gates), circuit.n_wires)  # pragma: no cover


def _cache_for(circuit) -> _CircuitCache:
    """The circuit's schedule cache, invalidated on structural change."""
    token = _structural_token(circuit)
    cache = _CACHES.get(circuit)
    if cache is None or cache.token != token:
        if cache is not None and cache.pinned:
            raise StaleScheduleError(
                f"circuit {getattr(circuit, 'name', '?')!r} was "
                "structurally edited after its schedule cache was pinned "
                "(mid-campaign netlist edit?); refusing to recompile — "
                "unpin_schedule_cache() to accept the new structure"
            )
        cache = _CircuitCache(token)
        _CACHES[circuit] = cache
    return cache


def lookup_or_compile(
    circuit,
    comb_fanout: Dict[int, List[int]],
    pattern: Tuple[Tuple[float, int], ...],
) -> Optional[CompiledSchedule]:
    """Cached :func:`compile_schedule`; ``None`` means "interpret this".

    Failed compilations are cached too, so a pathological pattern costs
    the compile attempt only once.

    Raises:
        StaleScheduleError: The circuit's cache is pinned and its
            structural token no longer matches (see
            :func:`pin_schedule_cache`).
    """
    cache = _cache_for(circuit)
    programs = cache.programs
    if pattern in programs:
        programs.move_to_end(pattern)
        cache.hits += 1
        obs_metrics.inc(_METRIC_HITS)
        return programs[pattern]
    schedule = compile_schedule(circuit, comb_fanout, pattern)
    cache.compiles += 1
    obs_metrics.inc(_METRIC_COMPILES)
    programs[pattern] = schedule
    if len(programs) > _CACHE_CAPACITY:
        programs.popitem(last=False)
    return schedule


def pin_schedule_cache(circuit) -> None:
    """Pin the circuit's (possibly still empty) schedule cache.

    After pinning, a structural edit of the circuit turns the next
    :func:`lookup_or_compile` into a :class:`StaleScheduleError` instead
    of a silent recompile.  Campaign warm-ups pin the circuits they
    warmed so a mid-campaign netlist edit cannot produce shards of two
    different devices.
    """
    _cache_for(circuit).pinned = True


def unpin_schedule_cache(circuit) -> None:
    """Undo :func:`pin_schedule_cache` (no-op if never pinned)."""
    cache = _CACHES.get(circuit)
    if cache is not None:
        cache.pinned = False


def schedule_cache_info(circuit) -> Dict[str, int]:
    """Diagnostics: cached patterns / programs and usage counters.

    Returns ``patterns`` (cached timing patterns), ``compiled``
    (patterns with a compiled program; the rest fell back to the
    interpreter), ``hits`` / ``compiles`` (lifetime lookup counters of
    this build) and ``pinned``.  A cache built for an older structure
    of the circuit counts as empty (it will be dropped — or, if pinned,
    refused — on the next lookup).
    """
    cache = _CACHES.get(circuit)
    if cache is None or cache.token != _structural_token(circuit):
        return {"patterns": 0, "compiled": 0, "hits": 0, "compiles": 0,
                "pinned": False}
    return {
        "patterns": len(cache.programs),
        "compiled": sum(1 for s in cache.programs.values() if s is not None),
        "hits": cache.hits,
        "compiles": cache.compiles,
        "pinned": cache.pinned,
    }


def schedule_cache_counters() -> Dict[str, int]:
    """Per-process totals: schedule-cache ``hits`` and ``compiles``.

    Campaign workers snapshot this before and after each batch; the
    deltas travel back with the shard, so
    :class:`repro.leakage.stats.CampaignStats` can prove that workers
    replayed warm schedules instead of recompiling them.

    Backed by the :mod:`repro.obs.metrics` registry (metric names
    ``schedule_cache.hits`` / ``schedule_cache.compiles``); this
    function is a stable re-export.  Campaign warm-ups re-attribute
    their lookups to ``schedule_cache.warmup_*`` so the batch-time
    counters reconcile exactly with ``CampaignStats``.
    """
    return {
        "hits": int(obs_metrics.counter_value(_METRIC_HITS)),
        "compiles": int(obs_metrics.counter_value(_METRIC_COMPILES)),
    }


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
#: dtype -> flat row buffer reused across replays.  Allocating a fresh
#: multi-megabyte buffer per settle costs more in page faults than the
#: replay itself; a replay takes the buffer out while it runs, so a
#: concurrent one just allocates its own.
_ROWS: Dict[np.dtype, np.ndarray] = {}


def replay(
    schedule: CompiledSchedule,
    values: np.ndarray,
    event_values: Sequence[np.ndarray],
    sink: Optional[Callable],
    t_offset: float,
    max_events: int,
    circuit=None,
) -> Tuple[float, int]:
    """Execute a compiled program over the simulator's wire state.

    Args:
        schedule: Program from :func:`compile_schedule`.
        values: The simulator's wire-value matrix (mutated in place):
            ``(n_wires, n_traces)`` bool, or ``(n_wires, n_lanes)``
            ``uint64`` in packed mode (:mod:`repro.sim.bitpack`).  The
            kernel is the same for both: every op is bitwise.
        event_values: One coerced row per input event, in the order of
            the compiled pattern, with the dtype of ``values``.
        sink: The recorder's toggle sink
            (:func:`repro.sim.power.toggle_sink`), or ``None`` to skip
            recording.  It receives the settle's live updates once, in
            the interpreter's recording order: absolute times, wires,
            toggle rows and new-value rows.
        t_offset: Absolute time of this call's t=0.
        max_events: Gate-evaluation budget (same semantics as the
            interpreter's).
        circuit: The owning circuit, used only for diagnostics (name
            and oscillating-wire names in budget errors).

    Returns:
        ``(settle_time, n_gate_evaluations)``.

    Raises:
        SimulationError: The valid evaluations exceed ``max_events``;
            the wire state is left untouched.
    """
    size = schedule.n_rows * values.shape[1]
    buf = _ROWS.pop(values.dtype, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=values.dtype)
    rows = buf[:size].reshape(schedule.n_rows, values.shape[1])
    n_in = schedule.n_inputs
    if n_in:
        rows[:n_in] = event_values
    n_init = len(schedule.init_wires)
    rows[n_in : n_in + n_init] = values.take(schedule.init_wires, axis=0)
    valid = np.zeros(schedule.n_rows, dtype=bool)
    valid[:n_in] = True
    live = np.empty(schedule.n_rows, dtype=bool)  # read at version rows only
    for level in schedule.levels:
        new = rows[level.dst]
        rows.take(level.val, axis=0, out=new, mode="clip")  # "clip": no copy
        prev = rows.take(level.prev, axis=0)
        ok = valid[level.val]
        if not ok.all():
            new[~ok] = prev[~ok]  # no event scheduled: keep the version
        live[level.dst] = (new != prev).any(axis=1)
        for blk in level.blocks:
            if blk.starts is None:
                ok = live[blk.trig]
            else:
                ok = np.logical_or.reduceat(live[blk.trig], blk.starts)
            if not ok.any():
                continue  # value rows of dead evaluations stay invalid
            valid[blk.out] = ok
            rows[blk.out] = blk.evaluate(*rows.take(blk.in_rows, axis=0))

    evaluated = valid[schedule.eval_rows]
    n_evals = int(np.count_nonzero(evaluated))
    upd_valid = valid[schedule.upd_val]
    if n_evals > max_events:
        from .vectorsim import budget_error

        over = int(np.searchsorted(np.cumsum(evaluated), max_events + 1))
        step = schedule.eval_step[over]
        wires = schedule.upd_wire[(schedule.upd_step == step) & upd_valid]
        raise budget_error(circuit, schedule.times[step], max_events, wires)

    values[schedule.out_wires] = rows.take(schedule.out_rows, axis=0)
    scheduled = np.flatnonzero(upd_valid)
    last_t = schedule.times[schedule.upd_step[scheduled[-1]]] if len(scheduled) else 0
    if sink is not None:
        ids = np.flatnonzero(live[schedule.upd_dst])
        if len(ids):
            new = rows.take(schedule.upd_dst[ids], axis=0)
            sink(
                t_offset + schedule.step_times[schedule.upd_step[ids]],
                schedule.upd_wire[ids],
                new ^ rows.take(schedule.upd_prev[ids], axis=0),
                new,
            )
    _ROWS[values.dtype] = buf
    return last_t, n_evals
