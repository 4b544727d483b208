"""The campaign batch loop and its crash-safe supervisor.

Every campaign runner drives the one batch loop here;
:func:`run_campaign_supervised` is the one with a checkpoint path.  A
production-scale TVLA campaign (the paper's Figs. 14-17 at 2M traces
span hours across many workers) dies in hard ways: a ``kill -9``
mid-checkpoint, a worker that hangs or dies, a corrupted checkpoint
file greeting the restart, a shared-memory segment stranded by an
abnormal exit.  The loop is hardened against each:

* **Checksummed, schema-versioned checkpoints** — every checkpoint
  carries a CRC over its payload arrays; a truncated or bit-flipped
  file is detected at load, quarantined to ``<path>.corrupt`` and the
  campaign restarts from the last good generation instead of crashing.
* **Double-buffered checkpoint generations** — the previous checkpoint
  is rotated to ``<path>.prev`` before the new one lands, so a
  ``kill -9`` at *any* instruction of :func:`save_checkpoint_supervised`
  leaves at least one loadable generation on disk.
* **Timed checkpoints** — at most one write per
  ``checkpoint_interval_s`` seconds, so a fast campaign is not paced
  by fsyncs; a ``kill -9`` loses at most that interval plus one batch.
* **Signal-driven graceful shutdown** — SIGINT/SIGTERM flush a final
  checkpoint, write a ``<path>.interrupted`` resume marker and raise
  :class:`CampaignInterrupted`; the next run resumes bitwise.
* **Worker heartbeat / watchdog** — workers stamp a shared heartbeat
  (batch index, busy flag, pid) before and after each batch.  A worker
  that died with a batch still pending, a busy worker whose heartbeat
  goes stale, or a head batch exceeding ``worker_timeout_s`` gets the
  pool killed and the batch reassigned.  Kills are counted in the
  ``supervisor.watchdog_kills`` metric, which
  :attr:`CampaignStats.watchdog_kills` reads.
* **Poison-batch quarantine** — a batch that keeps failing across
  pool generations (``max_retries`` exceeded, failures observed from
  at least two distinct worker generations) is recorded in
  :attr:`CampaignStats.quarantined_batches`, its traces subtracted
  explicitly (:attr:`CampaignStats.skipped_traces`), and the campaign
  continues instead of aborting.  Quarantined indices persist in the
  checkpoint, so a resumed run does not silently retry a known-poison
  batch.
* **Orphan scavenging** — every pool teardown calls
  :func:`repro.leakage.transport.scavenge_orphans`, so abnormal exits
  never leak ``shared_memory`` segments.

When nothing goes wrong — and when every injected failure is of a
recoverable kind — the supervised campaign produces the bitwise
identical :class:`TvlaResult` of a plain serial
:func:`~repro.leakage.acquisition.run_campaign`.  Quarantining a batch
is the one documented exception: it *explicitly* changes the trace
count, and says so in the stats.

The failure modes this supervisor claims to survive are exercised by
the deterministic chaos harness in :mod:`repro.chaos`.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
import warnings
import zipfile
import zlib
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs.log import get_logger
from ..obs.summary import campaign_phases
from ..obs.trace import get_tracer, trace, trace_context
from .acquisition import (
    _HB_FIELDS,
    CampaignBatchError,
    CampaignConfig,
    TraceSource,
    _absorb_record,
    _batch_plan,
    _begin_stats,
    _init_worker,
    _pool_context,
    _timed_batch,
    _warm_source,
    _WorkerFailure,
    _worker_batch,
    resolve_n_workers,
)
from .stats import CampaignStats
from .transport import (
    TransportError,
    adopt_shard,
    new_campaign_prefix,
    resolve_transport,
    scavenge_orphans,
    segment_prefix,
    set_segment_prefix,
    unpack_shard,
)
from .tvla import TTestAccumulator, TvlaResult

__all__ = [
    "SUPERVISOR_CHECKPOINT_VERSION",
    "CampaignInterrupted",
    "SupervisorCheckpoint",
    "save_checkpoint_supervised",
    "load_checkpoint_supervised",
    "quarantine_checkpoint",
    "validate_runner_args",
    "run_campaign_supervised",
]

SUPERVISOR_CHECKPOINT_VERSION = 2

#: Checkpoint entries excluded from the CRC (the CRC cannot cover
#: itself).
_CRC_KEY = "crc32"

#: Fingerprint fields that must match between a checkpoint and the
#: campaign resuming from it.
_FINGERPRINT_FIELDS = ("n_traces", "batch_size", "noise_sigma", "seed", "label")

#: Poll interval of the parent's watchdog wait loop.
_POLL_S = 0.05

#: The clock behind the checkpoint cadence (a module attribute so tests
#: can step it without sleeping).
_clock = time.monotonic

_LOG = get_logger("leakage.supervisor")


class CampaignInterrupted(RuntimeError):
    """The campaign stopped early but resumably.

    Raised after the final checkpoint was flushed and the
    ``<checkpoint>.interrupted`` marker written; re-running the same
    supervised campaign with ``resume=True`` continues bitwise from
    ``next_batch``.
    """

    def __init__(self, checkpoint_path: str, next_batch: int, reason: str):
        super().__init__(
            f"campaign interrupted ({reason}) after {next_batch} batches; "
            f"state flushed to {checkpoint_path!r} — rerun with resume=True "
            "to continue bitwise"
        )
        self.checkpoint_path = checkpoint_path
        self.next_batch = next_batch
        self.reason = reason


# ----------------------------------------------------------------------
# checkpoint format v2: CRC + double-buffered generations
# ----------------------------------------------------------------------
@dataclass
class SupervisorCheckpoint:
    """A validated v2 checkpoint, and whether loading it fell back."""

    acc: TTestAccumulator
    next_batch: int
    restarts: int
    watchdog_kills: int
    quarantined: List[int]
    used_fallback: bool  #: True when ``<path>.prev`` had to be used


def _payload_crc(arrays: Dict[str, np.ndarray]) -> int:
    """CRC32 over every payload array's bytes, in sorted key order."""
    crc = 0
    for key in sorted(arrays):
        if key == _CRC_KEY:
            continue
        crc = zlib.crc32(key.encode(), crc)
        crc = zlib.crc32(np.ascontiguousarray(arrays[key]).tobytes(), crc)
    return crc & 0xFFFFFFFF


def _previous_path(path: str) -> str:
    return f"{path}.prev"


def marker_path(path: str) -> str:
    """The resumable-interruption marker next to checkpoint ``path``."""
    return f"{path}.interrupted"


def quarantine_checkpoint(path: str, reason: str) -> str:
    """Move an unreadable checkpoint aside and warn; returns the new path.

    The corrupt file is preserved as ``<path>.corrupt`` for post-mortems
    (overwriting any previous quarantine of the same path) so the
    campaign can restart cleanly without destroying the evidence.
    Counted in ``supervisor.checkpoints_quarantined``.
    """
    target = f"{path}.corrupt"
    try:
        os.replace(path, target)
    except OSError:  # pragma: no cover - concurrent removal
        pass
    msg = (
        f"checkpoint {path!r} is unreadable ({reason}); quarantined to "
        f"{target!r} and ignored"
    )
    _LOG.warning("%s", msg)
    warnings.warn(msg, RuntimeWarning, stacklevel=3)
    obs_metrics.inc("supervisor.checkpoints_quarantined")
    return target


def save_checkpoint_supervised(
    path: str,
    acc: TTestAccumulator,
    config: CampaignConfig,
    next_batch: int,
    restarts: int = 0,
    watchdog_kills: int = 0,
    quarantined: "Optional[List[int]]" = None,
) -> None:
    """Write a checksummed v2 checkpoint, keeping the previous generation.

    Write order is crash-safe at every instruction boundary:

    1. the new state goes to ``<path>.tmp`` (flushed and fsynced);
    2. the current ``<path>`` — if any — rotates to ``<path>.prev``;
    3. ``<path>.tmp`` replaces ``<path>``.

    A ``kill -9`` during (1) leaves both generations untouched; during
    (2)/(3) the previous generation survives as ``<path>`` or
    ``<path>.prev``, and the loader falls back.  Nothing is ever
    modified in place.
    """
    arrays: Dict[str, np.ndarray] = dict(acc.state())
    arrays["version"] = np.asarray(
        SUPERVISOR_CHECKPOINT_VERSION, dtype=np.int64
    )
    arrays["next_batch"] = np.asarray(int(next_batch), dtype=np.int64)
    arrays["n_traces"] = np.asarray(config.n_traces, dtype=np.int64)
    arrays["batch_size"] = np.asarray(config.batch_size, dtype=np.int64)
    arrays["noise_sigma"] = np.asarray(config.noise_sigma, dtype=np.float64)
    arrays["seed"] = np.asarray(config.seed, dtype=np.int64)
    arrays["label"] = np.asarray(config.label)
    arrays["restarts"] = np.asarray(int(restarts), dtype=np.int64)
    arrays["watchdog_kills"] = np.asarray(int(watchdog_kills), dtype=np.int64)
    arrays["quarantined"] = np.asarray(
        sorted(quarantined or ()), dtype=np.int64
    )
    arrays[_CRC_KEY] = np.asarray(_payload_crc(arrays), dtype=np.uint32)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        np.savez(f, **arrays)
        f.flush()
        os.fsync(f.fileno())
    if os.path.exists(path):
        os.replace(path, _previous_path(path))
    os.replace(tmp, path)


def _read_v2(
    path: str, config: CampaignConfig, n_samples: int
) -> "Optional[SupervisorCheckpoint]":
    """One generation: parse, CRC-check and fingerprint-check ``path``.

    Returns ``None`` (after quarantining the file) for anything
    unparseable or checksum-corrupt; raises ``ValueError`` only for
    well-formed checkpoints of a *different* campaign.
    """
    try:
        with np.load(path, allow_pickle=False) as z:
            data = {k: z[k] for k in z.files}
    except (OSError, EOFError, zipfile.BadZipFile, ValueError, KeyError) as exc:
        quarantine_checkpoint(path, f"{type(exc).__name__}: {exc}")
        return None
    required = {
        _CRC_KEY, "version", "next_batch", "n_samples",
        "restarts", "watchdog_kills", "quarantined", *_FINGERPRINT_FIELDS,
    }
    missing = sorted(required - set(data))
    if missing:
        quarantine_checkpoint(path, f"missing entries {missing}")
        return None
    if int(data["version"]) != SUPERVISOR_CHECKPOINT_VERSION:
        quarantine_checkpoint(
            path,
            f"unsupported checkpoint version {int(data['version'])} "
            f"(supervisor writes v{SUPERVISOR_CHECKPOINT_VERSION})",
        )
        return None
    if _payload_crc(data) != int(data[_CRC_KEY]):
        quarantine_checkpoint(
            path,
            f"CRC mismatch (stored {int(data[_CRC_KEY]):#010x}, computed "
            f"{_payload_crc(data):#010x}) — payload corrupt",
        )
        return None
    for name in _FINGERPRINT_FIELDS:
        have = data[name].item()
        want = getattr(config, name)
        if have != want:
            raise ValueError(
                f"checkpoint {path!r} belongs to a different campaign: "
                f"{name} is {have!r} in the checkpoint but {want!r} in "
                "the config (refusing to merge incompatible sums)"
            )
    if int(data["n_samples"]) != int(n_samples):
        raise ValueError(
            f"checkpoint {path!r} has {int(data['n_samples'])} samples "
            f"per trace but the source produces {n_samples}"
        )
    return SupervisorCheckpoint(
        acc=TTestAccumulator.from_state(data),
        next_batch=int(data["next_batch"]),
        restarts=int(data["restarts"]),
        watchdog_kills=int(data["watchdog_kills"]),
        quarantined=[int(q) for q in data["quarantined"]],
        used_fallback=False,
    )


def load_checkpoint_supervised(
    path: str, config: CampaignConfig, n_samples: int
) -> "Optional[SupervisorCheckpoint]":
    """Load the newest good checkpoint generation.

    Tries ``path`` first, then ``<path>.prev``.  Corrupt generations
    are quarantined (``.corrupt``, counted in
    ``supervisor.checkpoints_quarantined``) with a warning and skipped; the
    fallback re-simulates the batches merged between the two writes
    (at most ``checkpoint_interval_s`` of progress plus one batch) and
    keeps the resumed result bitwise identical.

    Returns ``None`` when no generation is loadable — the campaign
    starts fresh.
    """
    for candidate, is_fallback in (
        (path, False),
        (_previous_path(path), True),
    ):
        if not os.path.exists(candidate):
            continue
        loaded = _read_v2(candidate, config, n_samples)
        if loaded is not None:
            loaded.used_fallback = is_fallback
            return loaded
    return None


def validate_runner_args(
    checkpoint_interval_s: float = 1.0,
    max_retries: int = 0,
    worker_timeout_s: Optional[float] = None,
    backoff_s: float = 0.0,
    warmup_batch_s: Optional[float] = None,
) -> None:
    """Reject runner parameter combinations that can never make progress.

    A silent retry loop is worse than an immediate error: a
    ``worker_timeout_s`` shorter than one batch's compute time kills
    every attempt, burns ``max_retries`` pool rebuilds and then grinds
    through the whole campaign serially — hours of wasted work that a
    parameter check at minute zero would have prevented.

    Args:
        warmup_batch_s: Measured warm-up/first-batch wall time, when
            the caller has one; used to catch timeouts no batch can
            beat.

    Raises:
        ValueError: With an actionable message naming the parameter.
    """
    if not checkpoint_interval_s >= 0:  # also rejects NaN
        raise ValueError(
            f"checkpoint_interval_s must be >= 0 seconds (0 = after every "
            f"merged batch), got {checkpoint_interval_s}"
        )
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if backoff_s < 0:
        raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
    if worker_timeout_s is not None and worker_timeout_s <= 0:
        raise ValueError(
            f"worker_timeout_s must be > 0 (or None to wait forever), got "
            f"{worker_timeout_s}: every batch would be declared hung "
            "before it could start"
        )
    if (
        worker_timeout_s is not None
        and warmup_batch_s is not None
        and warmup_batch_s > 0
        and worker_timeout_s < warmup_batch_s
    ):
        raise ValueError(
            f"worker_timeout_s={worker_timeout_s:g} is shorter than the "
            f"measured warm-up batch time of {warmup_batch_s:.3g}s: every "
            "batch would be killed before finishing and the campaign can "
            "never make progress.  Raise worker_timeout_s above the batch "
            "time (with headroom), or shrink batch_size."
        )


# ----------------------------------------------------------------------
# parent-side watchdog
# ----------------------------------------------------------------------
class _HungPool(Exception):
    """Internal: the watchdog (or head-batch deadline) fired."""


def _await_result(
    result,
    deadline: Optional[float],
    hb,
    watchdog_timeout_s: Optional[float],
    outstanding: Set[int],
):
    """Wait for the head batch, watching the pool's heartbeats.

    Raises :class:`_HungPool` when the head batch blows its deadline, a
    worker died while its batch is still ``outstanding`` (the pool never
    returns a result for a task lost with its worker), or a busy
    worker's heartbeat goes stale — each is answered with a pool kill
    and batch reassignment.  The dead-worker check needs no timeout.
    """
    while True:
        try:
            return result.get(timeout=_POLL_S)
        except multiprocessing.TimeoutError as exc:
            now = time.monotonic()
            if deadline is not None and now > deadline:
                raise _HungPool("head batch exceeded worker_timeout_s") from exc
            alive = {p.pid for p in multiprocessing.active_children()}
            for slot in range(len(hb) // _HB_FIELDS):
                base = _HB_FIELDS * slot
                beat, index, busy, pid = hb[base:base + _HB_FIELDS]
                if pid and int(pid) not in alive and int(index) in outstanding:
                    raise _HungPool(
                        f"worker pid {int(pid)} died on batch {int(index)}"
                    ) from exc
                if (
                    watchdog_timeout_s is not None
                    and busy
                    and now - beat > watchdog_timeout_s
                ):
                    raise _HungPool(
                        f"worker slot {slot} heartbeat stale for "
                        f">{watchdog_timeout_s:g}s on batch {int(index)}"
                    ) from exc


@dataclass
class _BatchFailureLog:
    """Per-batch failure accounting behind poison-batch quarantine."""

    counts: Dict[int, int] = field(default_factory=dict)
    origins: Dict[int, Set[str]] = field(default_factory=dict)

    def record(self, index: int, origin: str) -> None:
        self.counts[index] = self.counts.get(index, 0) + 1
        self.origins.setdefault(index, set()).add(origin)

    def is_poison(self, index: int, max_retries: int) -> bool:
        """Failed more than ``max_retries`` times across >= 2 origins.

        The two-origin requirement distinguishes a poisoned *batch*
        from a broken *worker generation*: one bad pool can fail any
        batch, but only a batch that takes down independent workers is
        condemned.
        """
        return (
            self.counts.get(index, 0) > max_retries
            and len(self.origins.get(index, ())) >= 2
        )


# ----------------------------------------------------------------------
# the batch loop
# ----------------------------------------------------------------------
def _campaign_loop(
    source: TraceSource,
    config: CampaignConfig,
    stats: CampaignStats,
    checkpoint_path: Optional[str] = None,
    n_workers: "Optional[int | str]" = None,
    checkpoint_interval_s: float = 1.0,
    max_retries: int = 0,
    worker_timeout_s: Optional[float] = None,
    watchdog_timeout_s: Optional[float] = None,
    backoff_s: float = 0.0,
    resume: bool = True,
    cleanup: bool = True,
    quarantine_batches: bool = False,
    handle_signals: bool = False,
    stop_after_batches: Optional[int] = None,
    chaos=None,
) -> Generator[TTestAccumulator, None, TTestAccumulator]:
    """The one campaign batch loop; every runner is a thin call into it.

    Yields the merged accumulator after each batch (in batch order) and
    returns it once the plan is done; fills ``stats`` as it goes, and
    on exit sets ``stats.counters`` to the registry counter diff across
    the run, every worker batch's diff merged in.  The
    defaults are :func:`~repro.leakage.acquisition.run_campaign`'s
    fail-fast contract, and ``checkpoint_path=None`` turns
    checkpointing off.  The arguments are those of
    :func:`run_campaign_supervised`.  Closing the generator early
    cancels the pool: the ``finally`` tears it down, scavenges orphaned
    segments and flushes the progress of an interrupted run.
    """
    validate_runner_args(
        checkpoint_interval_s, max_retries, worker_timeout_s, backoff_s
    )
    if watchdog_timeout_s is None:
        watchdog_timeout_s = worker_timeout_s
    if stop_after_batches is not None and stop_after_batches < 1:
        raise ValueError(
            f"stop_after_batches must be >= 1, got {stop_after_batches}"
        )

    # The campaign's one account: stats.counters is this diff at exit.
    before = obs_metrics.snapshot()

    def counted(metric: str) -> int:
        """This run's delta of registry counter ``metric`` so far."""
        return int(obs_metrics.counter_value(metric) - before.counter(metric))

    plan = _batch_plan(config)
    requested = config.n_workers if n_workers is None else n_workers
    n_workers = resolve_n_workers(requested, len(plan))
    transport = resolve_transport(config.transport, source.n_samples)
    if segment_prefix() is None:
        set_segment_prefix(new_campaign_prefix())
    stats.requested_workers = requested
    stats.n_workers = n_workers
    stats.oversubscribed = n_workers > stats.cpu_count

    # Warm up only where it pays: before forking the first pool (the
    # workers inherit the compiled schedules), or here, so a
    # worker_timeout_s no batch can beat is rejected before hours of
    # retry loops rather than after.  A serial campaign's first batch
    # compiles what it needs; a warm-up would only repeat that work.
    warmed = worker_timeout_s is not None
    if warmed:
        warmup_s = _warm_source(source)
        stats.warmup_seconds += warmup_s
        validate_runner_args(
            worker_timeout_s=worker_timeout_s, warmup_batch_s=warmup_s or None
        )

    tracer = get_tracer()
    span_mark = tracer.mark() if tracer is not None else 0
    acc = TTestAccumulator(source.n_samples)
    start = 0
    quarantined: List[int] = []
    if checkpoint_path is not None and resume:
        with trace("campaign.checkpoint_load", path=checkpoint_path):
            loaded = load_checkpoint_supervised(
                checkpoint_path, config, source.n_samples
            )
        if loaded is not None:
            acc, start = loaded.acc, loaded.next_batch
            quarantined = list(loaded.quarantined)
            # The checkpoint's totals enter this run's counters once, so
            # the stats and the next checkpoint stay cumulative.
            obs_metrics.inc("supervisor.restarts", loaded.restarts + 1)
            obs_metrics.inc("supervisor.watchdog_kills", loaded.watchdog_kills)
            if loaded.used_fallback:
                obs_metrics.inc("supervisor.checkpoint_restores")
    stats.quarantined_batches = quarantined
    stats.skipped_traces = sum(plan[q][1] for q in quarantined)

    post_checkpoint = getattr(chaos, "post_checkpoint", None)
    worker_setup = getattr(chaos, "worker_setup", None)
    dirty = False  # merged batches not yet checkpointed
    last_flush = _clock()

    def flush(next_batch: int) -> None:
        nonlocal dirty, last_flush
        dirty = False
        if checkpoint_path is None:
            return
        with trace("campaign.checkpoint", next_batch=next_batch):
            save_checkpoint_supervised(
                checkpoint_path,
                acc,
                config,
                next_batch=next_batch,
                restarts=counted("supervisor.restarts"),
                watchdog_kills=counted("supervisor.watchdog_kills"),
                quarantined=quarantined,
            )
        obs_metrics.inc("supervisor.checkpoints_written")
        last_flush = _clock()
        if post_checkpoint is not None:
            post_checkpoint(checkpoint_path, next_batch)

    # --- signal handling: flush, mark, exit resumably ------------------
    stop_signal: List[int] = []
    installed: List[Tuple[int, object]] = []
    if handle_signals and threading.current_thread() is threading.main_thread():
        def _on_signal(signum, frame):  # pragma: no cover - timing-dependent
            stop_signal.append(signum)

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                installed.append((signum, signal.getsignal(signum)))
                signal.signal(signum, _on_signal)
            except (ValueError, OSError):  # pragma: no cover
                pass

    def interrupt(reason: str, next_batch: int) -> "CampaignInterrupted":
        # Flush only un-checkpointed progress: a redundant save would
        # rotate the generations once more for nothing (and, under
        # chaos, hide damage the last save already took).
        if dirty or not os.path.exists(checkpoint_path):
            flush(next_batch)
        with open(marker_path(checkpoint_path), "w") as f:
            json.dump(
                {
                    "label": config.label,
                    "next_batch": next_batch,
                    "n_batches": len(plan),
                    "reason": reason,
                },
                f,
            )
        return CampaignInterrupted(checkpoint_path, next_batch, reason)

    t_start = time.perf_counter()
    failures = _BatchFailureLog()
    i = start
    attempts = 0  # consecutive failures without merging progress
    pool = None
    pool_gen = 0
    hb = None
    pending: Dict[int, object] = {}
    submitted = i
    merged_this_run = 0

    def start_pool() -> None:
        nonlocal pool, hb, pool_gen, warmed, submitted
        # Capture the context *before* opening the setup span so worker
        # spans root under the campaign span, not under pool setup.
        obs_ctx = trace_context()
        with trace("campaign.pool_setup", n_workers=n_workers):
            ctx = _pool_context(config)
            if ctx.get_start_method() == "fork" and not warmed:
                stats.warmup_seconds += _warm_source(source)
                warmed = True
            # Twice as many slots as workers: a worker the pool starts
            # to replace a dead one takes a fresh slot instead of
            # overwriting the record the watchdog needs.
            hb = ctx.Array("d", _HB_FIELDS * 2 * n_workers)
            pool = ctx.Pool(
                n_workers,
                initializer=_init_worker,
                initargs=(
                    source,
                    config,
                    transport,
                    segment_prefix(),
                    obs_ctx,
                    hb,
                    ctx.Value("i", 0),
                    worker_setup,
                ),
            )
        pool_gen += 1
        stats.transport = transport
        stats.start_method = ctx.get_start_method()
        submitted = i

    def teardown_pool() -> None:
        nonlocal pool, hb, pending, submitted
        if pool is not None:
            with trace("campaign.pool_teardown"):
                # Release the segments of speculative batches that
                # completed but will be resubmitted: their payloads are
                # discarded, and a stranded segment would outlive the run.
                for result in pending.values():
                    try:
                        if result.ready():
                            out = result.get(0)
                            if not isinstance(out, _WorkerFailure):
                                unpack_shard(adopt_shard(out[0]))
                    except Exception:
                        pass
                pool.terminate()
                pool.join()
            # With the pool dead, anything under the campaign prefix is
            # a true orphan: in-flight shards of a cancelled run, or
            # leftovers of killed workers.
            with trace("campaign.scavenge"):
                scavenge_orphans()
        pool = None
        hb = None
        pending = {}
        submitted = i

    def on_failure(index: int, exc: Exception) -> bool:
        """The retry / quarantine / degrade policy for every failure.

        ``exc`` is a :class:`_HungPool` (deadline, dead worker, stale
        heartbeat), a :class:`CampaignBatchError` (the source raised:
        deterministic), a :class:`TransportError` (the shard vanished
        on its way to the parent) or anything else a broken pool
        raises.  Returns True when the batch was quarantined.
        """
        nonlocal attempts, n_workers
        origin = "serial" if pool is None else f"pool-{pool_gen}"
        if pool is not None:
            # Whatever went wrong, the next attempt gets a fresh pool:
            # the failure may be environmental.
            obs_metrics.inc("supervisor.pool_rebuilds")
            if isinstance(exc, _HungPool):
                obs_metrics.inc("supervisor.watchdog_kills")
            teardown_pool()
        deterministic = isinstance(exc, CampaignBatchError)
        if deterministic and not quarantine_batches:
            raise exc
        failures.record(index, origin)
        attempts += 1
        if quarantine_batches and failures.is_poison(index, max_retries):
            quarantined.append(index)
            stats.skipped_traces += plan[index][1]
            attempts = 0
            return True
        if attempts <= max_retries:
            time.sleep(backoff_s * (2 ** (attempts - 1)))
        elif deterministic:
            raise exc
        elif isinstance(exc, TransportError):
            raise CampaignBatchError(
                index, config.label, f"transport: {exc}"
            ) from exc
        else:
            n_workers = 1  # permanent serial degradation
            attempts = 0
        return False

    # The run span opens here and closes in the ``finally`` below, so
    # pool teardown and the scavenge stay inside it — manual
    # enter/exit keeps the recovery control flow un-indented.
    run_span = trace(
        "campaign.run", label=config.label, n_traces=config.n_traces
    )
    run_span.__enter__()
    try:
        while i < len(plan):
            if stop_signal:
                raise interrupt(
                    f"signal {signal.Signals(stop_signal[0]).name}", i
                )
            if i in quarantined:
                i += 1
                continue
            if (
                stop_after_batches is not None
                and merged_this_run >= stop_after_batches
            ):
                raise interrupt("stop_after_batches", i)

            index, n = plan[i]
            if n_workers > 1:
                if pool is None:
                    start_pool()
                # Keep a bounded submission window ahead of the merge
                # cursor: enough to saturate the pool, small enough
                # that a pool death loses little speculative work.
                while submitted < len(plan) and submitted - i < 2 * n_workers:
                    if submitted not in quarantined:
                        pending[submitted] = pool.apply_async(
                            _worker_batch, (plan[submitted],)
                        )
                    submitted += 1
            try:
                if n_workers <= 1:
                    stats.start_method = "serial"
                    stats.transport = "none"
                    try:
                        shard, record = _timed_batch(source, config, index, n)
                    except Exception as exc:
                        raise CampaignBatchError(
                            index, config.label, f"{type(exc).__name__}: {exc}"
                        ) from exc
                else:
                    outstanding = set(pending)
                    deadline = (
                        time.monotonic() + worker_timeout_s
                        if worker_timeout_s is not None
                        else None
                    )
                    # The await is a real phase of the parent — blocked
                    # on workers — and spans it so the merged timeline
                    # accounts for the wait, not just the work.
                    with trace("campaign.await", index=index):
                        out = _await_result(
                            pending.pop(i), deadline, hb,
                            watchdog_timeout_s, outstanding,
                        )
                    if isinstance(out, _WorkerFailure):
                        raise CampaignBatchError(
                            out.index, config.label, out.message, out.traceback
                        )
                    payload, record = out
                    shard = unpack_shard(adopt_shard(payload))
            except Exception as exc:
                if on_failure(index, exc):
                    i += 1
                continue
            with trace("campaign.merge"):
                acc.merge(shard)
            _absorb_record(record)
            stats.batches.append(record)
            attempts = 0
            i += 1
            merged_this_run += 1
            dirty = True
            # The final batch is never written here: the code after the
            # loop deletes the files or writes the finished state once.
            if (
                checkpoint_path is not None
                and i < len(plan)
                and _clock() - last_flush >= checkpoint_interval_s
            ):
                flush(i)
            yield acc
    finally:
        for signum, old in installed:
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):  # pragma: no cover
                pass
        teardown_pool()
        if dirty and i < len(plan):
            # Interrupted (exception, signal, closed early): persist the
            # completed prefix so the restart costs at most one batch.
            flush(i)
        run_span.__exit__(None, None, None)
        stats.wall_seconds = time.perf_counter() - t_start
        stats.counters = obs_metrics.snapshot().diff(before).counters
        tracer = get_tracer()
        if tracer is not None:  # traced run: attach the phase breakdown
            stats.phases = campaign_phases(tracer.spans(since=span_mark))

    if checkpoint_path is not None:
        if cleanup:
            for leftover in (
                checkpoint_path,
                _previous_path(checkpoint_path),
                marker_path(checkpoint_path),
                f"{checkpoint_path}.tmp",
            ):
                if os.path.exists(leftover):
                    os.remove(leftover)
        else:
            flush(i)
    return acc


def _drain(loop: Generator[TTestAccumulator, None, TTestAccumulator]):
    """Run a campaign loop to its end; returns the final accumulator."""
    while True:
        try:
            next(loop)
        except StopIteration as done:
            return done.value


# ----------------------------------------------------------------------
# the checkpointed runners
# ----------------------------------------------------------------------
def run_campaign_supervised(
    source: TraceSource,
    config: CampaignConfig,
    checkpoint_path: str,
    n_workers: Optional[int] = None,
    checkpoint_interval_s: float = 1.0,
    max_retries: int = 2,
    worker_timeout_s: Optional[float] = None,
    watchdog_timeout_s: Optional[float] = None,
    backoff_s: float = 0.5,
    resume: bool = True,
    cleanup: bool = True,
    quarantine_batches: bool = True,
    handle_signals: bool = True,
    stop_after_batches: Optional[int] = None,
    chaos=None,
) -> TvlaResult:
    """Run a fixed-vs-random campaign under the hardened supervisor.

    Args:
        source: Device under test.
        config: Campaign parameters (checkpoint fingerprint).
        checkpoint_path: Base path of the ``.npz`` checkpoint; the
            supervisor also manages ``<path>.prev`` (previous
            generation), ``<path>.corrupt`` (quarantine) and
            ``<path>.interrupted`` (resume marker).
        n_workers: Process count (``None`` = ``config.n_workers``).
        checkpoint_interval_s: Write at most one checkpoint per this
            many seconds of ``time.monotonic()``; ``0`` writes after
            every merged batch but the last.  A signal,
            ``stop_after_batches`` or an exception flushes all merged
            progress; a SIGKILL loses at most this interval plus one
            batch of it.
        max_retries: Failures tolerated per batch before quarantining
            it (parallel, failures from >= 2 pool generations) or
            degrading to serial execution.
        worker_timeout_s: Hard deadline for the head batch.  ``None``
            relies on the heartbeat watchdog alone; a worker that dies
            with a batch pending is detected without any timeout.  A
            timeout makes the campaign warm the source up front and
            reject a value shorter than that warm-up.
        watchdog_timeout_s: Heartbeat staleness threshold; a busy
            worker silent for longer is declared hung and its pool
            killed.  ``None`` defaults to ``worker_timeout_s``.
        backoff_s: Exponential-backoff base between pool rebuilds.
        resume: Load the newest good checkpoint generation (default).
        cleanup: Delete checkpoint generations and the interruption
            marker after a completed run.
        quarantine_batches: Enable poison-batch quarantine.  ``False``
            aborts on the first deterministic batch failure (the source
            raised).
        handle_signals: Install SIGINT/SIGTERM handlers (main thread
            only) that flush a final checkpoint and raise
            :class:`CampaignInterrupted`.  Pool workers never keep
            them: each restores the default SIGTERM action and ignores
            SIGINT, leaving shutdown to this process.
        stop_after_batches: Merge at most this many batches in this
            process, then checkpoint and raise
            :class:`CampaignInterrupted` — time-sliced operation for
            schedulers, and the chaos harness's injection point for
            checkpoint-corruption scenarios.
        chaos: Optional chaos policy (duck-typed, see
            :mod:`repro.chaos`): ``worker_setup`` is invoked in every
            pool worker, ``post_checkpoint(path, next_batch)`` after
            every checkpoint write.

    Returns:
        The campaign's :class:`TvlaResult`, bitwise identical to an
        undisturbed serial run unless batches were quarantined — in
        which case ``result.stats.quarantined_batches`` and
        ``result.stats.skipped_traces`` say exactly what is missing.

    Raises:
        CampaignInterrupted: Signal received or ``stop_after_batches``
            reached; state is on disk and resumable.
        CampaignBatchError: A batch failed beyond recovery policy.
        ValueError: Invalid runner arguments, a timeout no batch can
            beat, or a checkpoint of a different campaign.
    """
    stats = _begin_stats(config)
    acc = _drain(
        _campaign_loop(
            source,
            config,
            stats,
            checkpoint_path=checkpoint_path,
            n_workers=n_workers,
            checkpoint_interval_s=checkpoint_interval_s,
            max_retries=max_retries,
            worker_timeout_s=worker_timeout_s,
            watchdog_timeout_s=watchdog_timeout_s,
            backoff_s=backoff_s,
            resume=resume,
            cleanup=cleanup,
            quarantine_batches=quarantine_batches,
            handle_signals=handle_signals,
            stop_after_batches=stop_after_batches,
            chaos=chaos,
        )
    )
    return acc.result(label=config.label, stats=stats)
