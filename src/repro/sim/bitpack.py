"""Bit-packed trace lanes: 64 traces per ``uint64`` word.

The vectorised simulator's hot loops are pure boolean algebra over
``(n_wires, n_traces)`` arrays — one full *byte* of memory traffic per
trace-bit per op.  Packing the trace axis 64-to-a-``uint64`` turns every
gate evaluation, toggle mask and state update into the same bitwise
expression over ``(n_wires, n_lanes)`` words: a 64x reduction in bytes
moved per logic op, which is where simulation-based verifiers
(aLEAKator-style HDL simulation, bitsliced cipher evaluation) get their
throughput.

The packing convention is fixed by :func:`numpy.packbits` with
``bitorder="little"`` applied to the little-endian ``uint8`` view of the
lanes: trace ``i`` lives in lane ``i // 64``, and the whole codebase
only ever manipulates lanes with position-agnostic bitwise operators
(``& | ^ ~``) plus this module's pack/unpack/popcount, so the mapping of
traces to bit positions never leaks out.

Padding
-------
A ragged batch (``n_traces % 64 != 0``) pads the final lane with copies
of the **last real trace**, not with zeros.  Every gate is a pointwise
function and all simulator state starts uniform, so by induction the pad
bits shadow the last trace through the whole simulation.  That keeps the
packed engine's data-dependent control flow — "did any trace toggle?" —
*exactly* equal to the boolean engine's: a zero pad would raise phantom
toggles (e.g. through INV) in traces that do not exist, changing event
accounting and liveness guards.  Pad bits are stripped again on unpack,
so they never reach power samples or outputs.

Popcount
--------
:func:`popcount` uses :func:`numpy.bitwise_count` where available
(numpy >= 2.0) and falls back to an 8-bit lookup table over the
``uint8`` view on older numpy — same values, a few times slower.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LANE_BITS",
    "HAVE_BITWISE_COUNT",
    "n_lanes",
    "pack_bool",
    "pack_scalar",
    "unpack_u8",
    "unpack_bool",
    "popcount",
    "resolve_pack_traces",
    "AutoPackFallbackWarning",
]

#: Traces per packed lane (one ``uint64`` word).
LANE_BITS = 64

#: True when :func:`numpy.bitwise_count` exists (numpy >= 2.0); False
#: means :func:`popcount` runs on the 8-bit LUT fallback.
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: byte value -> number of set bits, for the numpy<2 popcount fallback.
_POPCOUNT_LUT = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def n_lanes(n_traces: int) -> int:
    """Number of ``uint64`` lanes covering ``n_traces`` trace bits."""
    if n_traces < 1:
        raise ValueError(f"n_traces must be >= 1, got {n_traces}")
    return -(-n_traces // LANE_BITS)


def pack_bool(values: np.ndarray) -> np.ndarray:
    """Pack a boolean array along its last axis into ``uint64`` lanes.

    ``(..., n_traces)`` bool -> ``(..., n_lanes)`` uint64.  A ragged
    final lane is padded with the last trace's value (see the module
    docstring for why zero-padding would be wrong).
    """
    values = np.asarray(values, dtype=bool)
    n = values.shape[-1]
    pad = (-n) % LANE_BITS
    if pad:
        values = np.concatenate(
            [values, np.repeat(values[..., -1:], pad, axis=-1)], axis=-1
        )
    packed = np.packbits(
        np.ascontiguousarray(values), axis=-1, bitorder="little"
    )
    return packed.view(np.uint64)


def pack_scalar(value: bool, lanes: int) -> np.ndarray:
    """A ``(lanes,)`` lane vector with every trace (and pad) bit set to
    ``value`` — the packed image of a scalar broadcast."""
    return np.full(lanes, _ONES if value else np.uint64(0), dtype=np.uint64)


def unpack_u8(packed: np.ndarray, count: int) -> np.ndarray:
    """Unpack lanes to 0/1 ``uint8`` bits, dropping the padding.

    ``(..., n_lanes)`` uint64 -> ``(..., count)`` uint8.  The uint8
    result feeds float energy accumulation directly (the boolean engine
    reads its toggle masks through a ``uint8`` view the same way, so
    downstream float arithmetic is bit-identical).
    """
    return np.unpackbits(
        np.ascontiguousarray(packed).view(np.uint8),
        axis=-1,
        count=count,
        bitorder="little",
    )


def unpack_bool(packed: np.ndarray, count: int) -> np.ndarray:
    """Unpack lanes to a boolean array, dropping the padding."""
    return unpack_u8(packed, count).view(bool)


class AutoPackFallbackWarning(RuntimeWarning):
    """Never raised: every recorder takes packed lanes, so
    ``pack_traces="auto"`` no longer falls back to the boolean engine.
    Kept importable because the repository benchmark
    (``perfbench/workloads.py``) still filters it."""


def resolve_pack_traces(pack_traces: "bool | str", n_traces: int) -> bool:
    """Resolve a ``pack_traces`` request against a batch size.

    ``True`` / ``False`` are honoured verbatim (packing tiny batches is
    allowed — a single ragged lane — just rarely worth it).  ``"auto"``
    packs once a batch fills at least one full lane
    (``n_traces >= 64``); below that the boolean engine is both smaller
    and faster.
    """
    if pack_traces == "auto":
        return n_traces >= LANE_BITS
    if isinstance(pack_traces, (bool, np.bool_)):
        return bool(pack_traces)
    raise ValueError(
        f"pack_traces must be True, False or 'auto', got {pack_traces!r}"
    )


def popcount(lanes: np.ndarray) -> np.ndarray:
    """Per-element set-bit count of an unsigned integer array.

    Uses :func:`numpy.bitwise_count` when numpy provides it; otherwise
    an 8-bit LUT over the ``uint8`` view (numpy < 2).  Either way the
    result counts pad bits too — mask or slice first when counting
    toggling *traces* of a ragged final lane.
    """
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(lanes)
    lanes = np.ascontiguousarray(lanes)
    per_byte = _POPCOUNT_LUT[lanes.view(np.uint8)]
    return per_byte.reshape(lanes.shape + (lanes.dtype.itemsize,)).sum(
        axis=-1, dtype=np.uint8
    )
