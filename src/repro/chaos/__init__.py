"""Deterministic chaos-injection harness for the campaign supervisor.

``repro.chaos`` proves the recovery claims of
:mod:`repro.leakage.supervisor` instead of asserting them: a seeded
:class:`ChaosPolicy` injects exactly one process-level failure — a
SIGKILLed worker, a hung worker, a corrupted or truncated checkpoint,
an exception mid-batch — into a running campaign, and the harness
demands either a bitwise-identical recovered result or a structured
error naming the failed component.

Run the matrix from the command line::

    python -m repro chaos                 # all modes, seed 0
    python -m repro chaos --mode kill_worker --seed 3
    python -m repro chaos --seeds 5       # soak: 5 seeds per mode
"""

from .policy import CHECKPOINT_MODES, FAILURE_MODES, WORKER_MODES, ChaosPolicy
from .harness import (
    ChaosSource,
    ScenarioResult,
    SynthSource,
    run_chaos_matrix,
    run_chaos_scenario,
)

__all__ = [
    "FAILURE_MODES",
    "WORKER_MODES",
    "CHECKPOINT_MODES",
    "ChaosPolicy",
    "ChaosSource",
    "SynthSource",
    "ScenarioResult",
    "run_chaos_scenario",
    "run_chaos_matrix",
]
