"""Fixed-vs-random acquisition campaigns.

Glue between a *trace source* (anything that can simulate a batch of
power traces: a gadget bank, a masked DES core) and the streaming TVLA
accumulator.  The harness owns:

* the fixed/random class assignment (random interleaving, as on the
  real measurement setup),
* the measurement-noise injection (additive Gaussian — the simulator's
  traces are noiseless, the SAKURA-G's are not; EXPERIMENTS.md records
  the sigma used per experiment),
* batching, so campaigns stream through the vectorised simulator in
  constant memory.

Parallel acquisition
--------------------
Every batch derives its random stream from ``(campaign seed, batch
index)``, so any batch can be simulated independently of the others.
``run_campaign`` / ``detect_leakage_traces`` / ``run_multi_fixed``
exploit this with ``n_workers``: batches are sharded across a process
pool, each worker reduces its batch to the per-batch
:class:`TTestAccumulator` *moments* (never raw traces — see
:mod:`repro.leakage.transport`), and the shards are merged *in batch
order* — which reproduces the serial run's float64 addition sequence
bit for bit (see :meth:`TTestAccumulator.merge`).  A parallel campaign
is therefore not "statistically equivalent" to the serial one; it is
the same result.

Every runner drives the one batch loop and worker pool of
:mod:`repro.leakage.supervisor`.  The plain runners here run it without
a checkpoint, retries, quarantine or signal handlers: a failing batch
raises :class:`CampaignBatchError`, and a pool that loses a worker is
replaced by in-process serial execution instead of hanging.

For parallelism to actually pay, three things have to hold, and the
loop enforces all three:

1. **Cheap shard transport.**  Workers return one contiguous moment
   buffer per batch (``transport="pickle"``) or just a shared-memory
   segment name (``transport="shared_memory"``); ``"auto"`` picks by
   payload size.  Raw power matrices never cross the pipe.
2. **Warm schedule caches.**  Sources exposing ``warmup()`` are warmed
   *in the parent before forking*, so every worker inherits the
   compiled event schedules instead of recompiling them; under
   ``spawn`` each worker warms itself once in ``_init_worker``.  The
   warmed circuits are pinned — a structural edit mid-campaign raises
   :class:`repro.sim.compiled.StaleScheduleError` instead of silently
   simulating a different device.  A serial campaign never warms up:
   its first batch compiles what it needs.
3. **A sane worker count.**  ``n_workers="auto"`` resolves against
   ``os.cpu_count()``; an explicit request exceeding the core count
   triggers an :class:`OversubscriptionWarning`: four workers on one
   core measure only pool overhead, so the request is never silent.
   :func:`suggest_batch_size` documents the batch-size heuristic;
   ``CampaignConfig.autotune()`` applies both.

Every runner attaches a :class:`repro.leakage.stats.CampaignStats` to
its :class:`TvlaResult` so throughput regressions are observable, not
anecdotal.  Its event counts are one account, the
:mod:`repro.obs.metrics` registry: a worker ships each batch's metrics
diff on the batch's :class:`BatchRecord`, the parent merges it on
receipt, and the stats read the parent's counter diff across the run.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
import warnings
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Protocol, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs.trace import adopt_trace_context, get_tracer, ingest_spans, trace
from ..sim.bitpack import LANE_BITS, resolve_pack_traces
from ..sim.compiled import pin_schedule_cache
from .stats import BatchRecord, CampaignStats
from .transport import (
    ShardPayload,
    mark_shard_sent,
    pack_shard,
    resolve_transport,
    set_segment_prefix,
)
from .tvla import TTestAccumulator, TvlaResult

__all__ = [
    "TraceSource",
    "CampaignConfig",
    "CampaignBatchError",
    "OversubscriptionWarning",
    "resolve_n_workers",
    "suggest_batch_size",
    "run_campaign",
    "run_multi_fixed",
    "detect_leakage_traces",
]


class CampaignBatchError(RuntimeError):
    """A batch failed during acquisition.

    Wraps the underlying source/simulator exception with the campaign
    context a bare pickled traceback lacks: which batch died, of which
    campaign.  The failing batch is re-runnable in isolation via
    ``_acquire_batch(source, config, batch_index, n)``.

    Attributes:
        batch_index: Index of the failing batch.
        label: ``config.label`` of the campaign.
        worker_traceback: Formatted traceback from the worker process
            (empty for in-process failures, where ``__cause__`` carries
            the original exception instead).
    """

    def __init__(
        self,
        batch_index: int,
        label: str,
        message: str,
        worker_traceback: str = "",
    ):
        detail = f"\n--- worker traceback ---\n{worker_traceback}" if worker_traceback else ""
        super().__init__(
            f"batch {batch_index} of campaign {label!r} failed: {message}{detail}"
        )
        self.batch_index = batch_index
        self.label = label
        self.worker_traceback = worker_traceback


class OversubscriptionWarning(RuntimeWarning):
    """More campaign workers requested than the host has CPUs.

    Oversubscribed pools *lose* throughput (context switching plus
    transport overhead with zero extra compute): four workers on one
    core time only pool overhead.  The request is honoured — CI boxes
    legitimately oversubscribe for correctness tests — but never
    silently.
    """


class TraceSource(Protocol):
    """A simulated device under test.

    ``n_samples`` is the trace length; :meth:`acquire` simulates one
    batch: traces where ``fixed_mask`` is True must use the fixed
    stimulus, the rest a fresh random stimulus.

    Sources used with ``n_workers > 1`` must be picklable (under the
    ``spawn`` start method the source is re-pickled into every worker;
    ``fork`` inherits it), and :meth:`acquire` must derive all
    randomness from the passed-in generator — module- or
    instance-level RNG state would break the per-batch reproducibility
    contract.

    Sources backed by the glitch simulator should additionally expose
    ``warmup() -> Sequence[Circuit]``: simulate one throwaway trace so
    every event-schedule the campaign will replay is compiled, and
    return the circuits involved.  The campaign runners call it once
    per process (parent before fork, workers under spawn; never on the
    serial path) and pin the returned circuits' schedule caches.
    """

    n_samples: int

    def acquire(self, fixed_mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return an (len(fixed_mask), n_samples) power matrix."""
        ...


@dataclass
class CampaignConfig:
    """Parameters of one fixed-vs-random campaign.

    Attributes:
        n_traces: Total traces (fixed + random).
        batch_size: Traces per simulator batch.
        noise_sigma: Additive Gaussian measurement noise (std-dev, in
            units of one gate-toggle energy).
        seed: Campaign seed (class assignment, stimuli, noise).  Batch
            ``i`` uses the spawned stream ``default_rng([seed, i])``,
            independent of how batches are distributed over workers.
        label: Free-form experiment label carried into the result.
        n_workers: Default process count for campaign runners; the
            ``n_workers`` argument of :func:`run_campaign` et al.
            overrides it per call.  1 = in-process serial; ``"auto"``
            resolves against ``os.cpu_count()`` (see
            :func:`resolve_n_workers`).
        transport: Shard transport for parallel runs — ``"auto"``
            (default), ``"pickle"`` or ``"shared_memory"``; see
            :mod:`repro.leakage.transport`.
        start_method: Process start method for the worker pool.
            ``None`` prefers ``fork`` (workers inherit the warmed
            schedule cache) with the platform default as fallback;
            ``"spawn"`` / ``"forkserver"`` force a re-pickled cold
            start (results stay bitwise identical either way).
        pack_traces: Simulation engine selection, pushed onto sources
            that expose a ``pack_traces`` attribute before each batch:
            ``False`` = boolean arrays, ``True`` = 64-traces-per-uint64
            bit-packed lanes, ``"auto"`` (default) = packed for batches
            of 64+ traces (see :mod:`repro.sim.bitpack`).  Either
            engine produces bitwise-identical t-statistics; the shard
            transport carries float64 moments and is unaffected.  A
            ragged final batch (``batch % 64 != 0``) is handled by
            padding the last lane with copies of the final trace —
            exact, but the pad bits are wasted work, so
            :func:`suggest_batch_size` rounds packed batches to lane
            multiples.
    """

    n_traces: int = 20000
    batch_size: int = 4000
    noise_sigma: float = 1.0
    seed: int = 0
    label: str = ""
    n_workers: "int | str" = 1
    transport: str = "auto"
    start_method: Optional[str] = None
    pack_traces: "bool | str" = "auto"

    def __post_init__(self) -> None:
        if self.n_traces <= 0:
            raise ValueError(
                f"n_traces must be > 0, got {self.n_traces} (an empty "
                "campaign has no batches and would silently produce "
                "all-zero statistics)"
            )
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be > 0, got {self.batch_size}")
        if self.noise_sigma < 0:
            raise ValueError(
                f"noise_sigma must be >= 0, got {self.noise_sigma}"
            )
        if isinstance(self.n_workers, str):
            if self.n_workers != "auto":
                raise ValueError(
                    f"n_workers must be an int >= 1 or 'auto', "
                    f"got {self.n_workers!r}"
                )
        elif self.n_workers < 1:
            raise ValueError(
                f"n_workers must be an int >= 1 or 'auto', got {self.n_workers}"
            )
        # Fail on typos now, not inside a worker an hour into the run.
        resolve_transport(self.transport, 1)
        resolve_pack_traces(self.pack_traces, self.batch_size)
        if self.start_method is not None:
            if self.start_method not in multiprocessing.get_all_start_methods():
                raise ValueError(
                    f"start_method {self.start_method!r} not available; "
                    f"this platform offers "
                    f"{multiprocessing.get_all_start_methods()}"
                )

    def autotune(self, cpu_count: Optional[int] = None) -> "CampaignConfig":
        """A copy with ``n_workers`` and ``batch_size`` tuned to the host.

        Workers: one per CPU, but never more than the campaign has
        batches of :func:`suggest_batch_size` traces to fill.  See that
        function for the batch-size heuristic.
        """
        cpu = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
        workers = max(1, min(cpu, self.n_traces // _MIN_AUTO_BATCH or 1))
        batch = suggest_batch_size(
            self.n_traces, workers, pack_traces=self.pack_traces
        )
        return replace(self, n_workers=workers, batch_size=batch)


#: Autotuned batches never go below this (vectorised simulation and
#: accumulator updates amortise poorly under it) ...
_MIN_AUTO_BATCH = 256
#: ... nor above this (bounds the per-worker trace matrix residency).
_MAX_AUTO_BATCH = 8192


def suggest_batch_size(
    n_traces: int,
    n_workers: int,
    pack_traces: "bool | str" = False,
) -> int:
    """Batch-size heuristic for a campaign of ``n_traces``.

    Three pressures, in priority order:

    1. **Load balance** — at least ~4 batches per worker, so the pool's
       dynamic dispatch can even out per-batch time variance and the
       campaign tail is short.
    2. **Vectorisation** — at least :data:`_MIN_AUTO_BATCH` traces per
       batch, below which per-batch fixed costs (RNG spawn, simulator
       setup, shard transport) dominate the numpy work.
    3. **Memory** — at most :data:`_MAX_AUTO_BATCH` traces per batch,
       bounding each worker's ``(batch, n_samples)`` float32 residency.

    When ``pack_traces`` selects the bit-packed engine for the
    suggested size, the size is additionally rounded down to a multiple
    of the 64-trace lane width: a ragged batch is simulated exactly (the
    final lane is padded with copies of its last trace and the padding
    is stripped before recording) but those pad bits are pure overhead,
    so lane-aligned batches are strictly better when the total allows
    it.  The campaign's *final* batch may still be ragged when
    ``n_traces`` itself is not lane-aligned — that is the padded case
    the equivalence tests pin down.
    """
    target = n_traces // max(1, 4 * n_workers)
    batch = max(
        1, min(_MAX_AUTO_BATCH, max(_MIN_AUTO_BATCH, target), n_traces)
    )
    if batch >= LANE_BITS and resolve_pack_traces(pack_traces, batch):
        batch -= batch % LANE_BITS
    return batch


def resolve_n_workers(
    requested: "int | str",
    n_batches: int,
    cpu_count: Optional[int] = None,
) -> int:
    """Resolve a worker request against the host and the batch plan.

    ``"auto"`` becomes ``min(cpu_count, n_batches)``.  An explicit
    integer is clamped to the batch count (idle workers are pointless)
    and honoured beyond the CPU count — but loudly, via
    :class:`OversubscriptionWarning`.
    """
    cpu = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if requested == "auto":
        return max(1, min(cpu, n_batches))
    n = max(1, min(int(requested), n_batches))
    if n > 1 and n > cpu:
        warnings.warn(
            f"campaign requests {n} workers on a {cpu}-CPU host; "
            "oversubscription adds transport and scheduling overhead "
            "without adding compute (use n_workers='auto' to match the "
            "host)",
            OversubscriptionWarning,
            stacklevel=3,
        )
    return n


# ----------------------------------------------------------------------
# batching
# ----------------------------------------------------------------------
def _batch_plan(config: CampaignConfig) -> List[Tuple[int, int]]:
    """``(batch_index, batch_size)`` for every batch of the campaign."""
    plan: List[Tuple[int, int]] = []
    remaining = config.n_traces
    while remaining > 0:
        n = min(config.batch_size, remaining)
        remaining -= n
        plan.append((len(plan), n))
    return plan


def _acquire_batch(
    source: TraceSource, config: CampaignConfig, index: int, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Simulate batch ``index``: class assignment, traces, noise.

    This is the single definition of the per-batch acquisition protocol
    (formerly duplicated between ``run_campaign`` and
    ``detect_leakage_traces``).  The batch's generator is seeded with
    ``[campaign seed, batch index]``, making every batch reproducible
    in isolation — the property the parallel runner relies on.
    """
    rng = np.random.default_rng([config.seed, index])
    fixed_mask = rng.integers(0, 2, size=n).astype(bool)
    if hasattr(source, "pack_traces"):
        # Push the campaign's engine selection onto the source (the
        # documented contract for simulator-backed sources); sources
        # without the attribute simply don't support packing.
        source.pack_traces = config.pack_traces
    with trace("batch.simulate", index=index, n=n):
        traces = source.acquire(fixed_mask, rng)
    if config.noise_sigma > 0:
        with trace("batch.noise", index=index):
            traces = traces + rng.normal(
                0.0, config.noise_sigma, size=traces.shape
            ).astype(traces.dtype, copy=False)
    return fixed_mask, traces


def _batch_accumulator(
    source: TraceSource, config: CampaignConfig, index: int, n: int
) -> TTestAccumulator:
    """One batch folded into a fresh per-batch accumulator (a shard)."""
    fixed_mask, traces = _acquire_batch(source, config, index, n)
    acc = TTestAccumulator(source.n_samples)
    with trace("batch.accumulate", index=index):
        acc.update(traces, fixed_mask)
    return acc


def _timed_batch(
    source: TraceSource, config: CampaignConfig, index: int, n: int
) -> Tuple[TTestAccumulator, BatchRecord]:
    """One batch plus its :class:`BatchRecord` (its wall time)."""
    t0 = time.perf_counter()
    with trace("campaign.batch", index=index, n=n):
        acc = _batch_accumulator(source, config, index, n)
    return acc, BatchRecord(index, n, time.perf_counter() - t0)


def _warm_source(source: TraceSource) -> float:
    """Warm and pin the source's schedule caches; returns seconds spent.

    No-op (0.0) for sources without a ``warmup()`` method.  Runs at
    most once per campaign and process: in the parent before the first
    ``fork`` pool is built (the workers inherit the warm cache through copy-on-write)
    or to validate a ``worker_timeout_s``, and inside ``_init_worker``
    (a cache hit under ``fork``, the real warm-up under ``spawn``).
    """
    warm = getattr(source, "warmup", None)
    if warm is None:
        return 0.0
    c0 = {
        key: obs_metrics.counter_value(f"schedule_cache.{key}")
        for key in ("hits", "compiles")
    }
    t0 = time.perf_counter()
    with trace("campaign.warmup"):
        circuits = warm() or ()
        for circuit in circuits:
            pin_schedule_cache(circuit)
    seconds = time.perf_counter() - t0
    # Re-attribute the warm-up's cache activity to dedicated metrics, so
    # the campaign's ``schedule_cache.hits``/``compiles`` diff (which
    # CampaignStats reads) counts batch-time lookups only.
    for key, old in c0.items():
        delta = obs_metrics.counter_value(f"schedule_cache.{key}") - old
        if delta:
            obs_metrics.inc(f"schedule_cache.warmup_{key}", delta)
            obs_metrics.inc(f"schedule_cache.{key}", -delta)
    return seconds


# Worker-process state, installed once per worker by the pool
# initializer so the source/config are not re-pickled per task.
_WORKER_STATE: Optional[Tuple[TraceSource, CampaignConfig, str]] = None

#: Heartbeat slot layout, in doubles per slot: last beat
#: (``time.monotonic``, comparable across processes on the platforms
#: the pool runs on), batch index (-1 before the first batch), busy
#: flag, worker pid.
_HB_FIELDS = 4
_HB = None
_MY_SLOT = -1


def _init_worker(
    source: TraceSource,
    config: CampaignConfig,
    transport: str,
    shm_prefix: Optional[str],
    obs_ctx: Optional[dict],
    hb,
    slot_counter,
    worker_setup: Optional[Callable[[], None]] = None,
) -> None:
    """Pool initializer: campaign state, heartbeat slot, chaos hook."""
    global _WORKER_STATE, _HB, _MY_SLOT
    # Forked workers inherit the parent's flush-and-exit handlers.  The
    # inherited SIGTERM handler only records the signal, so a worker
    # blocked on the task-queue lock went back to waiting instead of
    # dying on Pool.terminate() and teardown hung: restore the default
    # action.  SIGINT, which a terminal sends to the whole process
    # group, is ignored — the parent alone flushes the checkpoint and
    # tears the pool down.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Adopt (or, when the parent is untraced, drop) the parent's trace
    # context before anything that might open spans.  Under ``fork``
    # this also discards the inherited copy of the parent's span
    # buffer, which the parent already owns.
    adopt_trace_context(obs_ctx)
    set_segment_prefix(shm_prefix)
    _warm_source(source)
    _WORKER_STATE = (source, config, transport)
    with slot_counter.get_lock():
        _MY_SLOT = slot_counter.value % (len(hb) // _HB_FIELDS)
        slot_counter.value += 1
    _HB = hb
    _beat(-1, busy=False)
    if worker_setup is not None:
        worker_setup()


def _beat(index: int, busy: bool) -> None:
    """Stamp this worker's heartbeat slot (one lock acquisition)."""
    base = _HB_FIELDS * _MY_SLOT
    _HB[base:base + _HB_FIELDS] = [
        time.monotonic(), float(index), float(busy), float(os.getpid()),
    ]


@dataclass
class _WorkerFailure:
    """Sentinel a worker returns instead of raising.

    Exceptions from arbitrary sources may not survive pickling back to
    the parent; the sentinel always does, and carries the failing batch
    index plus the formatted worker traceback for the parent to wrap
    into a :class:`CampaignBatchError`.
    """

    index: int
    message: str
    traceback: str


def _worker_batch(
    item: Tuple[int, int]
) -> "Tuple[ShardPayload, BatchRecord] | _WorkerFailure":
    """One batch in a pool worker, with heartbeat stamps around it."""
    index, n = item
    source, config, transport = _WORKER_STATE  # type: ignore[misc]
    _beat(index, busy=True)
    try:
        tracer = get_tracer()
        span_mark = tracer.mark() if tracer is not None else 0
        before = obs_metrics.snapshot()
        try:
            acc, record = _timed_batch(source, config, index, n)
            payload = pack_shard(acc, transport)
        except Exception as exc:
            return _WorkerFailure(
                index, f"{type(exc).__name__}: {exc}", traceback.format_exc()
            )
        # Ship this batch's registry delta (and, when tracing, its
        # spans) to the parent on the record — the worker→parent
        # aggregation path that keeps one metrics snapshot covering the
        # whole campaign.
        record.metrics = obs_metrics.snapshot().diff(before).as_dict()
        if tracer is not None:
            record.spans = tracer.spans(since=span_mark)
        # Ownership of a shared-memory segment moves to the parent with
        # this return; drop it from our registry so the worker's exit
        # finalizer can't unlink a segment the parent is about to read.
        return mark_shard_sent(payload), record
    finally:
        _beat(index, busy=False)


def _absorb_record(record: BatchRecord) -> None:
    """Fold a worker-produced record's telemetry into this process.

    Merges the batch's metrics diff into the parent registry and
    ingests its spans into the parent tracer, then strips both from
    the record (they have been consumed; keeping worker span lists on
    every record would bloat ``CampaignStats``).  Serial batches never
    attach either, so this is a no-op for them.
    """
    if record.metrics is not None:
        obs_metrics.merge_into(record.metrics)
        record.metrics = None
    if record.spans is not None:
        ingest_spans(record.spans)
        record.spans = None


def _pool_context(config: CampaignConfig):
    """The multiprocessing context campaign pools run under.

    Prefers ``fork`` (workers inherit the parent's warmed schedule
    cache and the source is never pickled) unless the config names a
    start method; falls back to the platform default.
    """
    if config.start_method is not None:
        return multiprocessing.get_context(config.start_method)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _begin_stats(config: CampaignConfig) -> CampaignStats:
    return CampaignStats(
        label=config.label,
        n_traces=config.n_traces,
        batch_size=config.batch_size,
        cpu_count=os.cpu_count() or 1,
    )


# ----------------------------------------------------------------------
# campaign runners
# ----------------------------------------------------------------------
def run_campaign(
    source: TraceSource,
    config: CampaignConfig,
    n_workers: "Optional[int | str]" = None,
) -> TvlaResult:
    """Run one fixed-vs-random TVLA campaign against ``source``.

    Fails fast: no checkpoint, no retries, no quarantine, no signal
    handlers.  A batch that raises ends the campaign with a
    :class:`CampaignBatchError`; a pool that loses a worker finishes the
    campaign serially.

    Args:
        source: Device under test.
        config: Campaign parameters.
        n_workers: Process count; ``None`` uses ``config.n_workers``,
            ``"auto"`` matches the host's CPU count.  Any value yields
            the identical t-statistics; the attached
            :class:`CampaignStats` (``result.stats``) records the
            topology, throughput and transport actually used.
    """
    from .supervisor import _campaign_loop, _drain

    stats = _begin_stats(config)
    acc = _drain(_campaign_loop(source, config, stats, n_workers=n_workers))
    return acc.result(label=config.label, stats=stats)


def detect_leakage_traces(
    source: TraceSource,
    config: CampaignConfig,
    order: int = 1,
    threshold: float = 4.5,
    consecutive: int = 2,
    n_workers: "Optional[int | str]" = None,
) -> Tuple[Optional[int], TvlaResult]:
    """How many traces until TVLA flags leakage?

    Streams batches and checks the t-statistic after each one; reports
    the trace count at which |t| exceeded the threshold in
    ``consecutive`` successive checks (debouncing statistical flukes).
    This regenerates the paper's "significant peaks with as little as
    12 000 traces" PRNG-off sanity numbers (Fig. 14a / 17d).

    With parallel workers batches are simulated ahead in parallel but
    *checked* strictly in batch order, so the detection point is the
    same as the serial run's; workers simulating batches beyond the
    detection point are cancelled when the batch loop is closed.  (The
    ``auto`` transport resolves to ``pickle`` here: cancellation can
    drop in-flight results, which must not strand shared-memory
    segments.)

    Returns:
        ``(n_traces_at_detection or None, final TvlaResult)``.
    """
    from .supervisor import _campaign_loop

    if config.transport == "auto":
        config = replace(config, transport="pickle")
    stats = _begin_stats(config)
    hits = 0
    detected: Optional[int] = None
    loop = _campaign_loop(source, config, stats, n_workers=n_workers)
    try:
        for acc in loop:
            if np.max(np.abs(acc.t_stats(order))) > threshold:
                hits += 1
                if hits >= consecutive:
                    detected = acc.n_traces
                    break
            else:
                hits = 0
    finally:
        loop.close()
    return detected, acc.result(label=config.label, stats=stats)


def run_multi_fixed(
    make_source: Callable[[int], TraceSource],
    config: CampaignConfig,
    n_fixed: int = 3,
    n_workers: "Optional[int | str]" = None,
) -> List[TvlaResult]:
    """The paper's protocol: repeat the test with several fixed plaintexts.

    Args:
        make_source: Factory mapping a fixed-plaintext index (0..n-1) to
            a trace source configured with that fixed stimulus.
        config: Shared campaign parameters (seed is offset per test).
        n_fixed: Number of different fixed plaintexts (paper uses 3).
        n_workers: Forwarded to each :func:`run_campaign`.

    Returns:
        One :class:`TvlaResult` per fixed plaintext; combine with
        :func:`repro.leakage.tvla.consistent_leakage`.
    """
    results = []
    for i in range(n_fixed):
        cfg = replace(
            config,
            seed=config.seed + 1000 * (i + 1),
            label=f"{config.label} fixed#{i}" if config.label else f"fixed#{i}",
        )
        results.append(run_campaign(make_source(i), cfg, n_workers=n_workers))
    return results
