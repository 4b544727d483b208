"""Toggle-count power model with optional coupling.

The paper measures the (amplified) power consumption of a Spartan-6
while the masked DES runs, and feeds the samples to TVLA.  Dynamic CMOS
power is dominated by switching activity, and every leakage argument in
the paper (Sec. II-B, II-C, II-D) is a Hamming-distance/toggle argument.
We therefore model instantaneous power as the fanout-weighted number of
signal transitions falling into each time bin:

    P[trace, bin] = sum over transitions (wire w toggles at time t)
                    of weight(w),   bin = t // bin_ps

*Coupling* (Sec. VII-C): the paper attributes the residual first-order
leakage of the secAND2-PD engine to physical coupling between the long
delay lines.  Capacitive (Miller) coupling makes the switching energy of
two adjacent lines depend on whether they switch in the same or opposite
direction.  :class:`CouplingModel` reproduces this: for configured wire
pairs, coincident transitions add an energy term

    c * s_i * s_j,   s = (new - old) ∈ {-1, 0, +1}

which is exactly the mechanism that makes 2-share implementations leak
in the first order even when probing-secure (cf. De Cnudde et al.,
"Does Coupling Affect the Security of Masked Implementations?").

Recording
---------
Both simulation engines hand every settle to the recorder's sink,
:class:`PackedToggleAccumulator`, in a single call — ``uint64`` lanes
from the packed engine, boolean rows otherwise: the interpreter its
live transitions in recording order, a compiled replay its rows and
each update's liveness.  (:class:`TransientRecorder` is its own sink,
with the same entry.)  The sink gathers a replay's live
``new ^ prev`` rows through the schedule's deposit plan, its updates
stable-sorted by weight (kept per weight content).  Updates are in time
order, so within one weight the bins are nondecreasing for any time
offset: one plan serves every cycle.  Each (weight, bin) group is one
run, counted in per-trace bytes summed eight to a ``uint64`` word and
cut every 255 rows so no counter carries.  The sink keeps *exact
integer* sums per bin — toggle energy ``E`` and the coupling sign
products ``S`` — and :attr:`PowerRecorder.power` converts once,
rounding ``E - c * S`` to float32 (``c`` as a float32, as the per-event
float32 arithmetic used it).  With integer weights and a dyadic
coefficient (5.0, 0.25, ...) every partial sum of a per-event float32
accumulation is exact too, so the two agree bitwise; for other
coefficients (the default 0.05) the single rounding gives the correctly
rounded value where per-event accumulation drifted.  Weights must
therefore be non-negative integers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs.log import get_logger
from ..obs.trace import trace
from .bitpack import n_lanes, unpack_bool

_LOG = get_logger("sim.power")

__all__ = [
    "CouplingModel",
    "PowerRecorder",
    "PackedToggleAccumulator",
    "NullRecorder",
    "TransientRecorder",
    "default_weights",
    "toggle_sink",
    "ClampedEventWarning",
    "packed_accumulator_counters",
    "reset_packed_accumulator_counters",
]


class ClampedEventWarning(RuntimeWarning):
    """A transition fell past the recorder's time window and was clamped
    into the last bin.  Emitted once per recorder (i.e. once per batch —
    engines build a fresh recorder per batch); every clamped event is
    counted in ``recorder.stats["clamped_events"]``."""


#: Registry metric names of the process-wide sink telemetry (backed by
#: :mod:`repro.obs.metrics`): sink calls (one per recorded settle) and
#: toggle rows binned.  Snapshot with :func:`packed_accumulator_counters`
#: and diff around a region.
_M_CALLS = "packed_accumulator.calls"
_M_ROWS = "packed_accumulator.rows"
_M_CLAMPED = "power.clamped_events"


def packed_accumulator_counters() -> Dict[str, int]:
    """Snapshot of the process-wide sink counters: ``calls`` (sink
    calls, one per recorded settle) and ``rows`` (toggle rows binned)."""
    return {
        "calls": int(obs_metrics.counter_value(_M_CALLS)),
        "rows": int(obs_metrics.counter_value(_M_ROWS)),
    }


def reset_packed_accumulator_counters() -> None:
    """Zero the sink counters (tests / bench prep)."""
    obs_metrics.reset_metrics((_M_CALLS, _M_ROWS))


@dataclass
class CouplingModel:
    """Pairwise transition coupling between wires.

    Attributes:
        pairs: Wire-id pairs that are physically adjacent (e.g. the
            delay lines of the two shares of one variable in the PD
            S-box delay block, Fig. 11).
        coefficient: Energy added per coincident transition product;
            small relative to the unit toggle energy (physical coupling
            is a second-order effect, which is why the paper only sees
            it after millions of traces).
    """

    pairs: Sequence[Tuple[int, int]]
    coefficient: float = 0.05
    #: Two transitions couple when they happen within this window
    #: (routing skew means "simultaneous" switching is never exact).
    window_ps: int = 150

    def partner_map(self) -> Dict[int, List[int]]:
        pm: Dict[int, List[int]] = {}
        for a, b in self.pairs:
            pm.setdefault(a, []).append(b)
            pm.setdefault(b, []).append(a)
        return pm


def default_weights(fanout: Dict[int, List[int]], n_wires: int) -> np.ndarray:
    """Per-wire toggle energy: 1 + fanout count (capacitance proxy)."""
    w = np.ones(n_wires, dtype=np.float32)
    for wire, readers in fanout.items():
        w[wire] += len(readers)
    return w


#: Bytes spread (one per trace and row) per :func:`_deposit` block.
_BLOCK_BYTES = 1 << 18


def _deposit(target, bins, weights, rows, take, prev=None) -> None:
    """``target[bins[r]] += weights[r] * bits(row r)`` for every row,
    exactly, for integer weights.

    Row ``r`` is ``rows[take[r]] ^ rows[prev[r]]`` (``rows[take[r]]``
    without ``prev``); ``rows`` are ``uint64`` lanes or booleans.  Rows
    of one (weight, bin) group should be adjacent: any order is exact,
    only slower (see "Recording" above).
    """
    n_rows, n = len(bins), target.shape[1]
    packed = rows.dtype == np.uint64
    pad = 0 if packed else -n % 8
    width = rows.shape[1] * 64 if packed else n + pad  # bytes per spread row
    block = 255 * max(1, _BLOCK_BYTES // (255 * width))  # whole 255-row runs
    cut = np.ones(n_rows, dtype=bool)
    cut[1:] = (bins[1:] != bins[:-1]) | (weights[1:] != weights[:-1])
    cut[::255] = True
    starts = np.flatnonzero(cut)
    edges = np.searchsorted(starts, np.arange(0, n_rows + block, block))
    words = np.empty((len(starts), width // 8), dtype=np.uint64)
    for k, (s0, s1) in enumerate(zip(edges[:-1], edges[1:])):
        lo = k * block
        chunk = rows.take(take[lo : lo + block], axis=0)
        if prev is not None:
            chunk ^= rows.take(prev[lo : lo + block], axis=0)
        if packed:
            chunk = np.unpackbits(chunk.view(np.uint8), axis=1, bitorder="little")
        elif pad:
            chunk = np.pad(chunk, ((0, 0), (0, pad)))
        chunk = chunk.view(np.uint64)
        # on 11k-row settles reduceat won 1.2-2.1x at 256 traces, tied at
        # 512-1024, and lost 1.2x at 2048-4000 and 3.6x at 16384
        if width <= 1024:
            np.add.reduceat(chunk, starts[s0:s1] - lo, axis=0, out=words[s0:s1])
        else:
            bounds = np.append(starts[s0:s1] - lo, len(chunk)).tolist()
            for s, a, b in zip(range(s0, s1), bounds[:-1], bounds[1:]):
                chunk[a:b].sum(axis=0, out=words[s])
    seg_bins = bins[starts]
    order = np.argsort(seg_bins, kind="stable")
    counts = words.view(np.uint8)[order, :n] * weights[starts[order], None]
    seg_bins = seg_bins[order]
    first = np.flatnonzero(np.diff(seg_bins, prepend=-1)).tolist()
    for a, b in zip(first, first[1:] + [len(order)]):
        target[seg_bins[a]] += counts[a:b].sum(axis=0)


def _update_rows(t_offset, schedule, rows: np.ndarray, ids: np.ndarray):
    """``(times, wires, toggled, new)`` of a replayed settle's updates
    ``ids``, from its version ``rows``."""
    new = rows.take(schedule.upd_dst[ids], axis=0)
    toggled = new ^ rows.take(schedule.upd_prev[ids], axis=0)
    times = t_offset + schedule.step_times[schedule.upd_step[ids]]
    return times, schedule.upd_wire[ids], toggled, new


class PackedToggleAccumulator:
    """The recording sink: one :meth:`add` per settle, exact sums.

    It takes boolean rows as well as packed lanes; the name predates
    that and is kept because the repository benchmark (``perfbench/``)
    times :meth:`add` under it.

    Holds per-bin integer sums — toggle energy and, with coupling, the
    sign-product sums — as ``(n_bins, n_traces)`` int64 matrices, plus
    the last transition of every coupled wire, which carries across the
    settles of a batch.  It holds no reference to its
    :class:`PowerRecorder`, so a batch's recorder dies with its batch.
    """

    def __init__(
        self,
        n_traces: int,
        n_bins: int,
        bin_ps: int,
        weights: Optional[np.ndarray],
        coupling: Optional[CouplingModel],
        stats: Dict[str, int],
    ):
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if np.any(weights < 0) or np.any(weights != np.floor(weights)):
                raise ValueError("toggle weights must be non-negative integers")
            weights = weights.astype(np.int64)
        self.n_traces = n_traces
        self.n_bins = n_bins
        self.bin_ps = bin_ps
        self.stats = stats
        self._weights = weights
        self._coupling = coupling
        self._partners = coupling.partner_map() if coupling else {}
        key = None if weights is None else weights.tobytes()
        self._plan_key = (key, tuple(self._partners))
        # coupled wire -> (t_ps, toggled, new) of its last transition
        self._last: Dict[int, Tuple[float, np.ndarray, np.ndarray]] = {}
        self.energy = np.zeros((n_bins, n_traces), dtype=np.int64)
        self.coupling_sum = (
            np.zeros((n_bins, n_traces), dtype=np.int64) if coupling else None
        )
        #: Bumped by every :meth:`add`; readers cache conversions on it.
        self.version = 0
        self._clamp_warned = False

    def add(self, times, wires, toggled, new) -> None:
        """Bin one settle: its live rows in recording order, or a replay's.

        Args:
            times: ``(R,)`` absolute times; or the replay's time offset.
            wires: ``(R,)`` wire ids; or the replay's schedule.
            toggled: ``(R, n_lanes)`` uint64 or ``(R, n_traces)`` bool
                ``old ^ new`` rows; or the replay's version rows.
            new: New values, same shape and dtype as ``toggled``; or
                the replay's ``(n_updates,)`` bool update liveness.
        """
        width = n_lanes(self.n_traces) if toggled.dtype == np.uint64 else self.n_traces
        if toggled.ndim != 2 or toggled.shape[1] != width:
            raise ValueError(
                f"sink holds {self.n_traces} traces, got toggle rows of "
                f"shape {toggled.shape} {toggled.dtype}"
            )
        obs_metrics.inc(_M_CALLS)
        self.version += 1
        if isinstance(wires, np.ndarray):
            weights = self._weights_of(wires)
            take = np.argsort(weights, kind="stable")
            weights, at, prev = weights[take], times[take], None
            if self._partners:
                c = self._coupled_ids(wires)
                self._couple(times[c], wires[c], toggled[c], new[c])
        else:  # a replay: ``new`` is the update liveness
            order, *plan, coupled = self._plan(wires)
            weights, at, take, prev = (a[new[order]] for a in plan)
            at = at + times
            if self._partners:
                ids = coupled[new[coupled]]
                self._couple(*_update_rows(times, wires, toggled, ids))
        obs_metrics.inc(_M_ROWS, len(weights))
        _deposit(self.energy, self._bins(at), weights, toggled, take, prev)

    def _coupled_ids(self, wires: np.ndarray) -> np.ndarray:
        ids = [i for i, w in enumerate(wires.tolist()) if w in self._partners]
        return np.asarray(ids, dtype=np.intp)

    def _weights_of(self, wires: np.ndarray) -> np.ndarray:
        if self._weights is None:
            return np.ones(len(wires), dtype=np.int64)
        return self._weights[wires]

    def _bins(self, times: np.ndarray) -> np.ndarray:
        """Time bin of each of ``times``; clamped ones are counted."""
        # equals ``times // bin_ps``, several times faster: for an integer
        # bin width the rounded quotient never reaches the next integer
        bins = np.floor(times / self.bin_ps).astype(np.intp)
        over = bins >= self.n_bins
        if over.any():
            self._note_clamped(times[over].min(), int(over.sum()))
            bins[over] = self.n_bins - 1
        return bins

    def _plan(self, s) -> Tuple[np.ndarray, ...]:
        """Schedule ``s``'s deposit plan for these weights: the update ids
        stable-sorted by weight, their weights, instants, new-version
        and previous-version rows; then the coupled-wire update ids."""
        plan = s.sink_plans.get(self._plan_key)
        if plan is None:
            weights = self._weights_of(s.upd_wire)
            order = np.argsort(weights, kind="stable")
            per_update = (weights, s.step_times[s.upd_step], s.upd_dst, s.upd_prev)
            plan = s.sink_plans[self._plan_key] = (
                order, *(a[order] for a in per_update), self._coupled_ids(s.upd_wire)
            )
        return plan

    def _couple(self, times, wires, toggled, new) -> None:
        """Sign products of coincident partner transitions, in order.

        Works on the coupled rows as given, in recording order: a pair's
        product is +1 where both toggled in the same direction and -1
        where they toggled in opposite directions, deposited as ``both``
        with weight 1 plus ``opposite`` with weight -2.
        """
        window = self._coupling.window_ps
        latest: Dict[int, Tuple[int, float]] = {}  # coupled wire -> (row, t)
        a_rows: List[int] = []
        b_rows: List[Tuple[np.ndarray, np.ndarray]] = []  # partner (toggled, new)
        for i, (w, t) in enumerate(zip(wires.tolist(), times.tolist())):
            for partner in self._partners[w]:
                here = latest.get(partner)
                if here is not None:
                    if t - here[1] <= window:
                        a_rows.append(i)
                        b_rows.append((toggled[here[0]], new[here[0]]))
                else:
                    last = self._last.get(partner)
                    if last is not None and t - last[0] <= window:
                        a_rows.append(i)
                        b_rows.append(last[1:])
            latest[w] = (i, t)
        if a_rows:
            a = np.asarray(a_rows, dtype=np.intp)
            both = toggled[a] & np.stack([tog for tog, _ in b_rows])
            opposite = both & (new[a] ^ np.stack([nw for _, nw in b_rows]))
            bins = np.minimum(times[a] // self.bin_ps, self.n_bins - 1).astype(np.intp)
            _deposit(
                self.coupling_sum,
                np.concatenate([bins, bins]),
                np.repeat([1, -2], len(a)),
                np.concatenate([both, opposite]),
                np.arange(2 * len(a)),
            )
        for w, (i, t) in latest.items():
            self._last[w] = (t, toggled[i].copy(), new[i].copy())

    def _note_clamped(self, t_ps, count: int) -> None:
        self.stats["clamped_events"] += count
        obs_metrics.inc(_M_CLAMPED, count)
        if not self._clamp_warned:
            self._clamp_warned = True
            msg = (
                f"transition at t={t_ps} ps falls past the recorder "
                f"window ({self.n_bins * self.bin_ps} ps); clamping "
                "into the last bin (all such events are counted in "
                "stats['clamped_events'])"
            )
            _LOG.warning("%s", msg)
            warnings.warn(msg, ClampedEventWarning, stacklevel=4)

    def power(self) -> np.ndarray:
        """The ``(n_traces, n_bins)`` float32 power matrix: ``E - c * S``
        rounded once (see the module docstring)."""
        with trace("power.flush", bins=self.n_bins):
            p = self.energy  # int64 straight to float32: one rounding
            if self.coupling_sum is not None:
                c = float(np.float32(self._coupling.coefficient))
                p = p - c * self.coupling_sum
            return np.ascontiguousarray(p.T, dtype=np.float32)


def toggle_sink(recorder) -> Optional[Callable]:
    """The per-settle sink the simulation engines feed for ``recorder``:
    its ``sink.add``, or ``None`` for no recorder or a null recorder
    (nothing is recorded)."""
    if recorder is None or getattr(recorder, "is_null", False):
        return None
    return recorder.sink.add


class PowerRecorder:
    """Accumulates transition energy into a (n_traces, n_bins) matrix.

    The simulation engines feed :attr:`sink` once per settle;
    :meth:`record_wire` / :meth:`record_batch` feed the same sink
    directly.
    """

    def __init__(
        self,
        n_traces: int,
        total_time_ps: int,
        bin_ps: int = 250,
        weights: Optional[np.ndarray] = None,
        coupling: Optional[CouplingModel] = None,
    ):
        """Raises:
            ValueError: ``bin_ps`` is not a positive integer, or
                ``weights`` are not non-negative integers.
        """
        if bin_ps <= 0 or bin_ps != int(bin_ps):
            raise ValueError("bin_ps must be a positive integer")
        self.n_traces = n_traces
        self.bin_ps = bin_ps
        self.n_bins = max(1, -(-total_time_ps // bin_ps))
        #: Observability counters; ``clamped_events`` counts recorded
        #: transitions whose time fell past the window (see
        #: :class:`ClampedEventWarning`).
        self.stats: Dict[str, int] = {"clamped_events": 0}
        self.sink = PackedToggleAccumulator(
            n_traces, self.n_bins, bin_ps, weights, coupling, self.stats
        )
        self._power: Optional[np.ndarray] = None
        self._power_version = -1

    @property
    def power(self) -> np.ndarray:
        """The accumulated (n_traces, n_bins) float32 power matrix,
        converted from the exact sums when first read after a change."""
        if self._power_version != self.sink.version:
            self._power = self.sink.power()
            self._power_version = self.sink.version
        return self._power

    def record_wire(
        self, t_ps, wire: int, toggled: np.ndarray, new: np.ndarray
    ) -> None:
        """One wire's boolean transitions at ``t_ps``.

        ``toggled`` must be ``old ^ new`` and already known non-zero.
        """
        self.sink.add(
            np.asarray([t_ps]),
            np.asarray([wire], dtype=np.intp),
            np.asarray(toggled, dtype=bool)[None],
            np.asarray(new, dtype=bool)[None],
        )

    def record_batch(
        self, t_ps: int, changes: Dict[int, Tuple[np.ndarray, np.ndarray]]
    ) -> None:
        """Record several wires' transitions at time ``t_ps``.

        Args:
            t_ps: Absolute simulation time of the transitions.
            changes: wire id -> (old_values, new_values) boolean arrays;
                only traces where old != new toggled.
        """
        for wire, (old, new) in changes.items():
            toggled = old ^ new
            if toggled.any():
                self.record_wire(t_ps, wire, toggled, new)

    def samples(self) -> np.ndarray:
        """Alias of :attr:`power` (TVLA vocabulary)."""
        return self.power


class TransientRecorder:
    """Captures every wire transition verbatim instead of binning energy.

    Where :class:`PowerRecorder` collapses transitions into a power
    trace, this recorder keeps the full ``(time, wire, toggled, new)``
    event stream — the raw material of a *glitch-extended probe*
    (:mod:`repro.verify`) and of waveforms
    (:func:`repro.sim.vcd.trace_waveforms`).  It is its own sink: both
    engines call :meth:`add` once per settle, as they call
    :meth:`PackedToggleAccumulator.add`, and the events come out in
    recording order as per-trace boolean rows whichever engine ran — a
    compiled replay's live updates are gathered from its rows, packed
    ``uint64`` lanes are unpacked to ``n_traces``.
    """

    def __init__(self, n_traces: int) -> None:
        self.n_traces = n_traces
        #: ``(t_ps, wire, toggled, new)`` in simulation order; ``toggled``
        #: and ``new`` are per-trace boolean arrays.
        self.events: List[Tuple[float, int, np.ndarray, np.ndarray]] = []

    @property
    def sink(self) -> "TransientRecorder":
        return self

    def add(self, times, wires, toggled, new) -> None:
        """One settle's live rows, or a replay's (as
        :meth:`PackedToggleAccumulator.add` takes them)."""
        if not isinstance(wires, np.ndarray):  # a replay: its live rows
            times, wires, toggled, new = _update_rows(
                times, wires, toggled, np.flatnonzero(new)
            )
        if toggled.dtype == np.uint64:
            toggled = unpack_bool(toggled, self.n_traces)
            new = unpack_bool(new, self.n_traces)
        self.events.extend(zip(times.tolist(), wires.tolist(), toggled, new))


class NullRecorder:
    """A recorder that discards everything (pure functional simulation).

    Both simulation engines check :attr:`is_null` and skip *all*
    recording work for this recorder — no toggle-energy arithmetic, no
    unpacking of packed lanes — so functional replay with a
    ``NullRecorder`` costs exactly as much as passing no recorder while
    keeping a recorder-shaped object in APIs that require one.
    """

    #: Engines treat the recorder as absent: transitions are neither
    #: unpacked nor weighted.  The no-op methods below still exist for
    #: callers that record unconditionally.
    is_null = True

    n_bins = 0

    def record_batch(self, t_ps: int, changes) -> None:
        pass

    def record_wire(self, t_ps, wire, toggled, new) -> None:
        pass
