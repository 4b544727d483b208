"""Batch-result transport between campaign workers and the parent.

A pool worker reduces its batch to a
:class:`~repro.leakage.tvla.TTestAccumulator` and returns the
accumulator's :meth:`~repro.leakage.tvla.TTestAccumulator.state` — the
exact snapshot a checkpoint writes: three int64 scalars and two
``(6, n_samples)`` float64 raw-moment matrices, never raw traces.  The
parent rebuilds it with
:meth:`~repro.leakage.tvla.TTestAccumulator.from_state`.  The round
trip is bitwise-lossless, so merging the shards in batch order keeps a
parallel campaign bitwise equal to the serial run, and only
:mod:`repro.leakage.tvla` knows the moment layout.

The payload is ``2 x 6 x n_samples`` float64 however many traces the
batch held: ~2 KB for a 20-sample sequence source, ~100 KB for a
masked-DES campaign.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs.trace import trace
from .tvla import TTestAccumulator

__all__ = ["pack_shard", "unpack_shard"]

#: Pickle framing of a five-entry state dict (keys, array headers) —
#: used to estimate pipe traffic without re-serialising.
_PIPE_OVERHEAD = 360


def pack_shard(acc: TTestAccumulator) -> Dict[str, np.ndarray]:
    """A batch accumulator's transportable snapshot (worker side)."""
    with trace("transport.pack"):
        state = acc.state()
    obs_metrics.inc(
        "transport.pipe_bytes",
        _PIPE_OVERHEAD + sum(a.nbytes for a in state.values()),
    )
    return state


def unpack_shard(state: Dict[str, np.ndarray]) -> TTestAccumulator:
    """Rebuild the worker's accumulator bit for bit (parent side)."""
    with trace("transport.unpack"):
        return TTestAccumulator.from_state(state)


# ----------------------------------------------------------------------
# Stub for the benchmark runner (``perfbench/run.py``), which still
# scavenges a killed run's shared-memory segments under this prefix.
# Campaigns create no segments, so there is never anything to unlink.
# Delete both names once the runner stops importing them.
# ----------------------------------------------------------------------
SEGMENT_PREFIX_ROOT = "repro-shm"


def scavenge_orphans(prefix: Optional[str] = None) -> List[str]:
    """Always ``[]``: no campaign creates a shared-memory segment."""
    return []
