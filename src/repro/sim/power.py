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
Both simulation engines hand every settle's live transitions to one
sink, :class:`PackedToggleAccumulator`, in a single call: absolute
times, wires, toggle rows and new-value rows in recording order —
``uint64`` lanes from the packed engine, boolean rows otherwise.  The
sink bins them by (bin, weight) group with byte-wide counters summed
eight to a ``uint64`` word, and derives the coupling term from the same
rows.  It keeps *exact integer* sums per bin — toggle energy ``E`` and
the coupling sign products ``S`` — and :attr:`PowerRecorder.power`
converts once, rounding ``E - c * S`` to float32 (``c`` as a float32,
as the per-event float32 arithmetic used it).  With integer weights and
a dyadic coefficient (5.0, 0.25, ...) every partial sum of a per-event
float32 accumulation is exact too, so the two agree bitwise; for other
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
from .bitpack import n_lanes, unpack_bool, unpack_u8

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


def _deposit(
    target: np.ndarray, bins: np.ndarray, weights: np.ndarray, rows: np.ndarray
) -> None:
    """``target[bins[r]] += weights[r] * bits(rows[r])`` for every row
    ``r``, exactly, for integer ``weights``.

    ``rows`` are ``uint64`` lanes or boolean rows.  Rows are grouped by
    (bin, weight); each run of at most 255 rows of a group is spread to
    one byte per trace and summed as ``uint64`` words, eight per-trace
    byte counters per word (no counter can carry into its neighbour),
    and the counts are widened, weighted and added.
    """
    n = target.shape[1]
    w0 = int(weights.min())
    order = np.argsort(
        bins * (int(weights.max()) - w0 + 1) + (weights - w0), kind="stable"
    )
    rows = np.take(rows, order, axis=0)
    bins, weights = bins[order], weights[order]
    if rows.dtype != np.uint64 and n % 8:
        rows = np.concatenate(
            [rows, np.zeros((len(rows), 8 - n % 8), dtype=bool)], axis=1
        )
    starts = np.flatnonzero((np.diff(bins) != 0) | (np.diff(weights) != 0)) + 1
    bounds = [0, *starts.tolist(), len(rows)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for c in range(lo, hi, 255):
            run = rows[c : min(hi, c + 255)]
            if run.dtype == np.uint64:
                run = unpack_u8(run, run.shape[1] * 64)
            counts = run.view(np.uint64).sum(axis=0).view(np.uint8)
            target[bins[lo]] += counts[:n].astype(np.int64) * weights[lo]


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
        self._coupled = np.asarray(sorted(self._partners), dtype=np.intp)
        # coupled wire -> (t_ps, toggled, new) of its last transition
        self._last: Dict[int, Tuple[float, np.ndarray, np.ndarray]] = {}
        self.energy = np.zeros((n_bins, n_traces), dtype=np.int64)
        self.coupling_sum = (
            np.zeros((n_bins, n_traces), dtype=np.int64) if coupling else None
        )
        #: Bumped by every :meth:`add`; readers cache conversions on it.
        self.version = 0
        self._clamp_warned = False

    def add(
        self,
        times: np.ndarray,
        wires: np.ndarray,
        toggled: np.ndarray,
        new: np.ndarray,
    ) -> None:
        """Bin one settle's live transitions.

        Args:
            times: ``(R,)`` absolute times, in recording order.
            wires: ``(R,)`` wire ids.
            toggled: ``(R, n_lanes)`` uint64 or ``(R, n_traces)`` bool
                ``old ^ new`` rows; every row toggles in some trace.
            new: New values, same shape and dtype as ``toggled``.
        """
        n = self.n_traces
        width = n_lanes(n) if toggled.dtype == np.uint64 else n
        if toggled.ndim != 2 or toggled.shape[1] != width:
            raise ValueError(
                f"sink holds {n} traces, got toggle rows of shape "
                f"{toggled.shape} {toggled.dtype}"
            )
        obs_metrics.inc(_M_CALLS)
        obs_metrics.inc(_M_ROWS, len(wires))
        self.version += 1
        bins = (times // self.bin_ps).astype(np.intp)
        over = bins >= self.n_bins
        if over.any():
            self._note_clamped(times[over][0], int(over.sum()))
            bins[over] = self.n_bins - 1
        weights = (
            np.ones(len(wires), dtype=np.int64)
            if self._weights is None
            else self._weights[wires]
        )
        _deposit(self.energy, bins, weights, toggled)
        if self._partners:
            coupled = np.flatnonzero(np.isin(wires, self._coupled))
            if len(coupled):
                self._couple(coupled, times, wires, toggled, new, bins)

    def _couple(self, coupled, times, wires, toggled, new, bins) -> None:
        """Sign products of coincident partner transitions, in order.

        Works on the rows as given (lanes or booleans): a pair's product
        is +1 where both toggled in the same direction and -1 where they
        toggled in opposite directions, deposited as ``both`` with
        weight 1 plus ``opposite`` with weight -2.
        """
        window = self._coupling.window_ps
        latest: Dict[int, Tuple[int, float]] = {}  # coupled wire -> (row, t)
        a_rows: List[int] = []
        b_rows: List[Tuple[np.ndarray, np.ndarray]] = []  # partner (toggled, new)
        for i, w, t in zip(
            coupled.tolist(), wires[coupled].tolist(), times[coupled].tolist()
        ):
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
            _deposit(
                self.coupling_sum,
                np.concatenate([bins[a], bins[a]]),
                np.repeat([1, -2], len(a)),
                np.concatenate([both, opposite]),
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


def toggle_sink(recorder, n_traces: int) -> Optional[Callable]:
    """The per-settle sink the simulation engines feed for ``recorder``.

    ``None`` for no recorder or a null recorder (nothing is recorded).
    Recorders with a :class:`PackedToggleAccumulator` (``sink``) get its
    :meth:`~PackedToggleAccumulator.add`; any other recorder gets an
    adapter that calls its ``record_wire(t_ps, wire, toggled, new)``
    once per row, in order, with boolean rows.
    """
    if recorder is None or getattr(recorder, "is_null", False):
        return None
    sink = getattr(recorder, "sink", None)
    if sink is not None:
        return sink.add
    record_wire = recorder.record_wire

    def per_wire(times, wires, toggled, new) -> None:
        if toggled.dtype == np.uint64:
            toggled = unpack_bool(toggled, n_traces)
            new = unpack_bool(new, n_traces)
        for t, w, tog, nw in zip(times.tolist(), wires.tolist(), toggled, new):
            record_wire(t, w, tog, nw)

    return per_wire


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
            ValueError: ``bin_ps`` is not positive, or ``weights`` are
                not non-negative integers.
        """
        if bin_ps <= 0:
            raise ValueError("bin_ps must be positive")
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
    (:mod:`repro.verify`): the complete transient value sequence each
    wire takes while the logic settles.  Both engines deliver it through
    :func:`toggle_sink`, one :meth:`record_wire` per transition in
    recording order.  The bit-packed engine (``pack_traces=True``) is
    refused: the simulator checks :attr:`requires_transients` and raises
    before simulating (see :mod:`repro.sim.bitpack`).
    """

    #: The simulator keeps the exact boolean transient path for this
    #: recorder: packed simulation raises instead of silently handing
    #: it lane words.
    requires_transients = True

    def __init__(self) -> None:
        #: ``(t_ps, wire, toggled, new)`` in simulation order; ``toggled``
        #: and ``new`` are per-trace boolean arrays (copies).
        self.events: List[Tuple[float, int, np.ndarray, np.ndarray]] = []

    def record_wire(
        self, t_ps, wire: int, toggled: np.ndarray, new: np.ndarray
    ) -> None:
        self.events.append((t_ps, int(wire), toggled.copy(), new.copy()))

    def record_batch(
        self, t_ps: int, changes: Dict[int, Tuple[np.ndarray, np.ndarray]]
    ) -> None:
        for wire, (old, new) in changes.items():
            toggled = old ^ new
            if toggled.any():
                self.record_wire(t_ps, wire, toggled, new)


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
