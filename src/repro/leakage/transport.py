"""Batch-result transport between campaign workers and the parent.

The first parallel-campaign implementation shipped every shard back as
a pickled :class:`~repro.leakage.tvla.TTestAccumulator` — two
``(6, n_samples)`` float64 raw-moment matrices per batch, serialised
into the pool's result pipe byte by byte.  On trace-heavy campaigns
that pipe traffic (plus the pickling CPU on both ends) ate the speedup
the pool was supposed to buy.

This module makes the shard transport explicit and cheap:

``pickle``
    The worker packs both classes' raw-moment sums into **one**
    contiguous ``(2, 6, n_samples)`` float64 array and returns it with
    three integers.  One buffer, one pickle, no object graph.

``shared_memory``
    The worker copies the packed moments into a POSIX shared-memory
    segment (:mod:`multiprocessing.shared_memory`) and returns only the
    segment *name*; the parent attaches, folds the moments straight out
    of the mapping, and unlinks.  The result pipe carries ~100 bytes
    per batch regardless of trace length — a zero-copy hand-off as far
    as the pickle layer is concerned.

``auto``
    ``shared_memory`` when the platform supports it and the payload is
    large enough for the segment round-trip to win
    (:data:`SHM_THRESHOLD_BYTES`), else ``pickle``.

Both paths are bitwise-lossless: the parent reconstructs the exact
float64 sums the worker computed, so the merge order — and therefore
the campaign's bitwise-equal-to-serial guarantee — is untouched.

Orphan scavenging
-----------------
A segment whose creator was SIGKILLed mid-batch, or whose consumer
died between send and :func:`unpack_shard`, has no process left that
knows its name — under the old anonymous naming it leaked until
reboot.  Three mechanisms close the hole:

* every process keeps a **segment registry** (:data:`_LIVE_SEGMENTS`)
  of names it created or adopted and has not yet released; an
  ``atexit`` finalizer unlinks whatever is still registered when the
  process exits normally;
* campaign runners install a per-campaign **segment prefix**
  (:func:`set_segment_prefix` / :func:`new_campaign_prefix`), so every
  segment of one campaign run carries a recognisable name;
* :func:`scavenge_orphans` unlinks everything in the registry *plus* —
  on platforms exposing ``/dev/shm`` — any on-disk segment matching
  the campaign prefix, which covers segments created by workers that
  died before their names ever reached the parent.  The campaign
  teardown paths call it after the pool is terminated, when no live
  worker can still be mid-creation.
"""

from __future__ import annotations

import atexit
import os
import secrets
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Set

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs.log import get_logger
from ..obs.trace import trace
from .tvla import TTestAccumulator

_LOG = get_logger("leakage.transport")

#: Registry metric names (see :mod:`repro.obs.metrics`): bytes crossing
#: the pool result pipe, segments created, and orphans scavenged.
_M_PIPE_BYTES = "transport.pipe_bytes"
_M_SEGMENTS = "transport.segments_created"
_M_SCAVENGED = "transport.scavenged_segments"

__all__ = [
    "TRANSPORTS",
    "SHM_THRESHOLD_BYTES",
    "SEGMENT_PREFIX_ROOT",
    "ShardPayload",
    "TransportError",
    "shared_memory_available",
    "resolve_transport",
    "pack_shard",
    "unpack_shard",
    "mark_shard_sent",
    "adopt_shard",
    "new_campaign_prefix",
    "set_segment_prefix",
    "segment_prefix",
    "scavenge_orphans",
    "set_chaos_hook",
]

#: Recognised transport names (``CampaignConfig.transport``).
TRANSPORTS = ("auto", "pickle", "shared_memory")

#: ``auto`` switches to shared memory above this packed-moment size;
#: below it, one pickled buffer is cheaper than two segment syscalls.
SHM_THRESHOLD_BYTES = 1 << 20

#: Pickle overhead of a small payload tuple (header, ints, short
#: strings) — used to estimate pipe traffic without re-serialising.
_PIPE_OVERHEAD = 160

#: All named segments start with this, so a scavenger scan can
#: recognise ours without ever touching another application's segments.
SEGMENT_PREFIX_ROOT = "repro-shm"

#: Names this process created or adopted and has not yet released.
_LIVE_SEGMENTS: Set[str] = set()

#: Per-campaign segment-name prefix (``None`` = anonymous names, the
#: pre-scavenger behaviour).  Campaign runners set it in the parent and
#: in every worker so orphans are attributable to one run.
_SEGMENT_PREFIX: Optional[str] = None

_SEGMENT_COUNTER = 0

#: Chaos seam: when set, called with each freshly created segment name
#: (worker side, after the payload is written).  The chaos harness uses
#: it to drop segments and prove the campaign survives; it is never set
#: in production.
_CHAOS_HOOK: Optional[Callable[[str], None]] = None


class TransportError(RuntimeError):
    """A shard/trace segment could not be attached or read.

    Raised with the failed component named (segment name, stage), so a
    supervisor can attribute the failure to the transport layer and
    retry the batch instead of surfacing a bare ``FileNotFoundError``.
    """

    def __init__(self, component: str, name: str, message: str):
        super().__init__(
            f"transport failure in {component} (segment {name!r}): {message}"
        )
        self.component = component
        self.segment_name = name


def set_chaos_hook(hook: "Optional[Callable[[str], None]]") -> None:
    """Install (or clear, with ``None``) the segment-creation chaos hook."""
    global _CHAOS_HOOK
    _CHAOS_HOOK = hook


def new_campaign_prefix() -> str:
    """A fresh per-campaign segment prefix, unique to this run."""
    return f"{SEGMENT_PREFIX_ROOT}-{os.getpid()}-{secrets.token_hex(4)}"


def set_segment_prefix(prefix: Optional[str]) -> None:
    """Name all future segments under ``prefix`` (``None`` = anonymous).

    Campaign runners call this in the parent before building a pool and
    forward the prefix to workers, so every segment of the run is
    recognisable to :func:`scavenge_orphans`.
    """
    global _SEGMENT_PREFIX
    _SEGMENT_PREFIX = prefix


def segment_prefix() -> Optional[str]:
    """The segment-name prefix currently in force in this process."""
    return _SEGMENT_PREFIX


def _create_segment(nbytes: int):
    """A fresh shared-memory segment, named under the campaign prefix.

    Falls back to an anonymous segment when no prefix is installed or
    the platform rejects our names.  The name is registered in this
    process's segment registry; the caller owns releasing it (directly
    or by shipping it to a consumer that does).
    """
    global _SEGMENT_COUNTER
    from multiprocessing import shared_memory

    shm = None
    if _SEGMENT_PREFIX is not None:
        for _ in range(8):  # name collisions are one-in-2^32; be safe anyway
            _SEGMENT_COUNTER += 1
            name = f"{_SEGMENT_PREFIX}-{os.getpid()}-{_SEGMENT_COUNTER}"
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=nbytes
                )
                break
            except FileExistsError:  # pragma: no cover - stale leftover
                continue
            except (OSError, ValueError):  # pragma: no cover - name rules
                break
    if shm is None:
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
    _LIVE_SEGMENTS.add(shm.name)
    obs_metrics.inc(_M_SEGMENTS)
    return shm


def _adopt_segment(name: str) -> None:
    """Record that this process now owns releasing ``name``."""
    _LIVE_SEGMENTS.add(name)


def _release_segment(name: str) -> None:
    """Drop ``name`` from the registry (it was unlinked or handed off)."""
    _LIVE_SEGMENTS.discard(name)


def _unlink_quietly(name: str) -> bool:
    """Unlink segment ``name`` if it still exists; True when it did.

    On POSIX the name is unlinked without attaching: a worker killed
    between ``shm_open`` and ``ftruncate`` leaves an empty segment that
    cannot be mapped, and attaching it would raise instead of freeing it.
    """
    from multiprocessing import shared_memory

    try:
        import _posixshmem  # the C module behind shared_memory on POSIX
    except ImportError:  # pragma: no cover - Windows
        _posixshmem = None
    if _posixshmem is not None:
        try:
            _posixshmem.shm_unlink("/" + name)
        except OSError:  # FileNotFoundError: already gone
            return False
        return True
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - permission races
        return False
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - lost a race
        return False
    return True


def scavenge_orphans(prefix: Optional[str] = None) -> List[str]:
    """Unlink every orphaned segment this process can attribute to itself.

    Two sweeps:

    1. the process-local registry — segments created or adopted here
       whose release never happened (consumer died between send and
       :func:`unpack_shard`);
    2. with ``prefix`` (or a campaign prefix installed via
       :func:`set_segment_prefix`), a scan of ``/dev/shm`` for on-disk
       segments carrying that prefix — segments created by a worker
       that died before its payload reached any registry.  Only names
       under the given campaign prefix are touched, never another
       run's.

    Call after pool teardown (no live worker mid-creation).  Returns
    the names actually unlinked; an empty list means no leaks.
    """
    scavenged: List[str] = []
    for name in sorted(_LIVE_SEGMENTS):
        if _unlink_quietly(name):
            scavenged.append(name)
    _LIVE_SEGMENTS.clear()
    scan = prefix if prefix is not None else _SEGMENT_PREFIX
    shm_dir = "/dev/shm"
    if scan and scan.startswith(SEGMENT_PREFIX_ROOT) and os.path.isdir(shm_dir):
        try:
            entries = os.listdir(shm_dir)
        except OSError:  # pragma: no cover - exotic mounts
            entries = []
        for entry in entries:
            if entry.startswith(scan) and _unlink_quietly(entry):
                scavenged.append(entry)
    if scavenged:
        obs_metrics.inc(_M_SCAVENGED, len(scavenged))
        _LOG.info(
            "scavenged %d orphaned shared-memory segment(s): %s",
            len(scavenged),
            ", ".join(scavenged),
        )
    return scavenged


@atexit.register
def _scavenge_at_exit() -> None:  # pragma: no cover - interpreter teardown
    """Process finalizer: release whatever this process still owns.

    Registry-only on purpose — at interpreter exit another process of
    the same campaign may still be running, so the prefix scan (which
    would unlink *its* in-flight segments) is left to the campaign
    teardown paths.
    """
    try:
        for name in list(_LIVE_SEGMENTS):
            _unlink_quietly(name)
        _LIVE_SEGMENTS.clear()
    except Exception:
        pass


def shared_memory_available() -> bool:
    """Whether :mod:`multiprocessing.shared_memory` works here."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - py<3.8 / exotic platforms
        return False
    return True


def resolve_transport(transport: str, n_samples: int) -> str:
    """Map a configured transport to the concrete one for this payload.

    Raises:
        ValueError: Unknown transport name, or ``shared_memory``
            requested on a platform without it.
    """
    if transport not in TRANSPORTS:
        raise ValueError(
            f"transport must be one of {TRANSPORTS}, got {transport!r}"
        )
    if transport == "shared_memory" and not shared_memory_available():
        raise ValueError(
            "transport='shared_memory' requested but "
            "multiprocessing.shared_memory is unavailable on this platform"
        )
    if transport == "auto":
        packed = 2 * 6 * int(n_samples) * 8
        if packed >= SHM_THRESHOLD_BYTES and shared_memory_available():
            return "shared_memory"
        return "pickle"
    return transport


@dataclass
class ShardPayload:
    """One batch's accumulator moments, in transit.

    Exactly one of ``moments`` (pickle transport) and ``shm_name``
    (shared-memory transport) is set.  ``pipe_bytes`` estimates what
    actually crossed the pool's result pipe for this shard.
    """

    n_samples: int
    fixed_n: int
    random_n: int
    moments: Optional[np.ndarray] = None  #: (2, 6, n_samples) float64
    shm_name: Optional[str] = None
    pipe_bytes: int = 0


def pack_shard(acc: TTestAccumulator, transport: str) -> ShardPayload:
    """Reduce an accumulator to its transportable moments (worker side).

    ``transport`` must already be concrete (:func:`resolve_transport`).
    """
    with trace("transport.pack", transport=transport):
        payload = _pack_shard(acc, transport)
    obs_metrics.inc(_M_PIPE_BYTES, payload.pipe_bytes)
    return payload


def _pack_shard(acc: TTestAccumulator, transport: str) -> ShardPayload:
    packed = np.stack([acc._fixed.sums, acc._random.sums])
    if transport == "pickle":
        return ShardPayload(
            n_samples=acc.n_samples,
            fixed_n=acc._fixed.n,
            random_n=acc._random.n,
            moments=packed,
            pipe_bytes=packed.nbytes + _PIPE_OVERHEAD,
        )
    from multiprocessing import resource_tracker

    shm = _create_segment(packed.nbytes)
    np.ndarray(packed.shape, np.float64, buffer=shm.buf)[:] = packed
    name = shm.name
    shm.close()
    # Ownership moves to the consumer, which unlinks after folding the
    # moments in.  Deregister from *our* resource tracker so a spawn
    # worker's tracker does not warn about (and double-free) a segment
    # someone else already released.
    try:  # pragma: no cover - tracker is an implementation detail
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    if _CHAOS_HOOK is not None:
        _CHAOS_HOOK(name)
    return ShardPayload(
        n_samples=acc.n_samples,
        fixed_n=acc._fixed.n,
        random_n=acc._random.n,
        shm_name=name,
        pipe_bytes=len(name) + _PIPE_OVERHEAD,
    )


def mark_shard_sent(payload: ShardPayload) -> ShardPayload:
    """Hand shard ownership to the consumer (worker side, pre-return).

    Drops the segment from the creator's registry so the creator's exit
    finalizer cannot unlink a segment the parent is about to read.  The
    send→unpack window is covered by the parent adopting the name on
    receipt (:func:`adopt_shard`) and, for payloads that never arrive,
    by the campaign-prefix scan in :func:`scavenge_orphans`.
    """
    if payload.shm_name is not None:
        _release_segment(payload.shm_name)
    return payload


def adopt_shard(payload: ShardPayload) -> ShardPayload:
    """Register a received shard's segment in this process (parent side).

    From this point the parent's registry (and exit finalizer) covers
    the segment even if :func:`unpack_shard` is never reached — the
    ownership hole a consumer death used to open.
    """
    if payload.shm_name is not None:
        _adopt_segment(payload.shm_name)
    return payload


def unpack_shard(payload: ShardPayload) -> TTestAccumulator:
    """Rebuild the worker's accumulator bit for bit (parent side).

    Releases the shared-memory segment when the payload carries one.

    Raises:
        TransportError: The segment vanished before it could be read
            (creator killed mid-handoff, or a scavenger raced us).
    """
    with trace("transport.unpack"):
        return _unpack_shard(payload)


def _unpack_shard(payload: ShardPayload) -> TTestAccumulator:
    acc = TTestAccumulator(payload.n_samples)
    acc._fixed.n = payload.fixed_n
    acc._random.n = payload.random_n
    if payload.shm_name is None:
        moments = payload.moments
        acc._fixed.sums[:] = moments[0]
        acc._random.sums[:] = moments[1]
        return acc
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=payload.shm_name)
    except FileNotFoundError as exc:
        _release_segment(payload.shm_name)
        raise TransportError(
            "unpack_shard", payload.shm_name, f"segment missing: {exc}"
        ) from exc
    try:
        moments = np.ndarray(
            (2, 6, payload.n_samples), np.float64, buffer=shm.buf
        )
        acc._fixed.sums[:] = moments[0]
        acc._random.sums[:] = moments[1]
    finally:
        shm.close()
        shm.unlink()
        _release_segment(payload.shm_name)
    return acc
