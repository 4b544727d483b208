"""Event-driven glitch simulation and power modelling.

Substitute for the paper's physical measurement setup (SAKURA-G +
oscilloscope): a transport-delay gate-level simulator whose transient
transitions *are* the glitches the paper reasons about, and a
toggle-count power model whose traces feed TVLA.
"""

from .bitpack import (
    HAVE_BITWISE_COUNT,
    LANE_BITS,
    n_lanes,
    pack_bool,
    pack_scalar,
    popcount,
    resolve_pack_traces,
    unpack_bool,
    unpack_u8,
)
from .compiled import (
    CompiledSchedule,
    StaleScheduleError,
    compile_schedule,
    pin_schedule_cache,
    schedule_cache_info,
    unpin_schedule_cache,
)
from .power import CouplingModel, NullRecorder, PowerRecorder, default_weights
from .vectorsim import InputEvent, SimulationError, VectorSimulator
from .clocking import ClockedHarness, TimingViolation
from .vcd import Waveform, to_vcd, trace_waveforms

__all__ = [
    "HAVE_BITWISE_COUNT",
    "LANE_BITS",
    "n_lanes",
    "pack_bool",
    "pack_scalar",
    "popcount",
    "resolve_pack_traces",
    "unpack_bool",
    "unpack_u8",
    "CompiledSchedule",
    "StaleScheduleError",
    "compile_schedule",
    "pin_schedule_cache",
    "schedule_cache_info",
    "unpin_schedule_cache",
    "CouplingModel",
    "NullRecorder",
    "PowerRecorder",
    "default_weights",
    "InputEvent",
    "SimulationError",
    "VectorSimulator",
    "ClockedHarness",
    "TimingViolation",
    "Waveform",
    "to_vcd",
    "trace_waveforms",
]
