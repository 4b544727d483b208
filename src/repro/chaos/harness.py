"""Chaos scenarios: inject one failure, demand a perfect recovery.

Each scenario runs a supervised campaign with exactly one scheduled
failure (:class:`~repro.chaos.policy.ChaosPolicy`) and holds the
outcome to the supervisor's contract:

* the final :class:`~repro.leakage.tvla.TvlaResult` is **bitwise
  identical** to an undisturbed serial run, or the run ended in a
  **structured error naming the failed component**
  (:class:`CampaignBatchError`, :class:`CampaignInterrupted` — never a
  hang, never a bare stack trace from the middle of the pool
  machinery);
* the injection **really happened** (the policy's one-shot flag was
  taken) — a chaos suite whose failures silently stop firing proves
  nothing.

Scenarios are deterministic per ``(mode, seed)``; the CLI
(``python -m repro chaos``) runs the full matrix for soak testing.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..leakage.acquisition import CampaignConfig, run_campaign
from ..leakage.supervisor import CampaignInterrupted, run_campaign_supervised
from ..obs.log import get_logger
from ..obs.trace import trace
from .policy import CHECKPOINT_MODES, FAILURE_MODES, ChaosPolicy

__all__ = [
    "SynthSource",
    "ChaosSource",
    "ScenarioResult",
    "run_chaos_scenario",
    "run_chaos_matrix",
]

_LOG = get_logger("chaos")


class SynthSource:
    """Leaky synthetic source; all randomness from the batch generator.

    Cheap enough that a full chaos scenario (clean run + disturbed run
    + retries) stays in CI-smoke territory, deterministic so the
    bitwise oracle is exact.
    """

    def __init__(self, n_samples: int = 16):
        self.n_samples = n_samples

    def acquire(self, fixed_mask: np.ndarray, rng) -> np.ndarray:
        traces = rng.normal(0.0, 1.0, (fixed_mask.shape[0], self.n_samples))
        traces[fixed_mask] += 0.05
        return traces


class ChaosSource:
    """A trace source with a chaos policy wired into its acquire seam.

    Transparent to the campaign contract: forwards ``n_samples``,
    ``pack_traces`` and ``warmup`` to the wrapped source and never
    consumes from the batch generator, so an injection-free run is
    bitwise equal to the bare source.
    """

    def __init__(self, inner, policy: ChaosPolicy):
        self.inner = inner
        self.policy = policy

    @property
    def n_samples(self) -> int:
        return self.inner.n_samples

    @property
    def pack_traces(self):
        return getattr(self.inner, "pack_traces", False)

    @pack_traces.setter
    def pack_traces(self, value) -> None:
        if hasattr(self.inner, "pack_traces"):
            self.inner.pack_traces = value

    def warmup(self):
        warm = getattr(self.inner, "warmup", None)
        return warm() if warm is not None else ()

    def acquire(self, fixed_mask: np.ndarray, rng) -> np.ndarray:
        self.policy.maybe_inject_in_acquire()
        return self.inner.acquire(fixed_mask, rng)


@dataclass
class ScenarioResult:
    """Outcome of one ``(mode, seed)`` chaos scenario."""

    mode: str
    seed: int
    injected: bool  #: the scheduled failure actually fired
    recovered: bool  #: the campaign produced a final result
    bitwise: bool  #: ... bitwise equal to the undisturbed run
    structured_error: Optional[str] = None  #: error type when not recovered
    stats: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """The supervisor's contract held for this scenario.

        Injection fired, and the run either recovered bitwise or died
        with a structured, attributable error.  A checkpoint mode must
        also have quarantined the damaged file and resumed from the
        previous generation: a silent restart from scratch is bitwise
        equal too, but exercises no fallback.
        """
        outcome = (self.recovered and self.bitwise) or (
            not self.recovered and self.structured_error is not None
        )
        if self.mode in CHECKPOINT_MODES and self.recovered:
            outcome = outcome and (
                self.stats.get("checkpoints_quarantined", 0) >= 1
                and self.stats.get("checkpoint_restores", 0) == 1
            )
        return self.injected and outcome

    def row(self) -> List[str]:
        outcome = (
            "bitwise" if self.recovered and self.bitwise
            else "diverged" if self.recovered
            else f"error:{self.structured_error}"
        )
        events = "  ".join(f"{k}={v}" for k, v in self.stats.items())
        return [
            self.mode,
            str(self.seed),
            "yes" if self.injected else "NO",
            outcome,
            "ok" if self.ok else "FAIL",
            f"{self.seconds:.1f}s",
            events,
        ]


#: Structured errors a scenario may legitimately end in: each names the
#: failing component (batch, campaign state).
_STRUCTURED = (CampaignInterrupted,)


def _campaign_config(mode: str, seed: int, quick: bool) -> CampaignConfig:
    n_traces = 800 if quick else 2000
    return CampaignConfig(
        n_traces=n_traces,
        batch_size=100,
        noise_sigma=0.5,
        seed=seed,
        label=f"chaos-{mode}-s{seed}",
    )


def run_chaos_scenario(
    mode: str,
    seed: int = 0,
    quick: bool = True,
    n_workers: int = 2,
) -> ScenarioResult:
    """Run one failure mode against a supervised campaign.

    Worker modes run a 2-worker pool with tight watchdog budgets and
    expect in-run recovery.  Checkpoint modes checkpoint after every
    batch, interrupt the campaign at the injection point, damage the
    last checkpoint written, then resume — expecting the loader to
    quarantine the damage and fall back to the previous generation.

    Returns a :class:`ScenarioResult`; never raises for in-contract
    failures (``result.ok`` carries the verdict).
    """
    if mode not in FAILURE_MODES:
        raise ValueError(f"mode must be one of {FAILURE_MODES}, got {mode!r}")

    config = _campaign_config(mode, seed, quick)
    reference = run_campaign(SynthSource(), config, n_workers=1)

    t0 = time.perf_counter()
    result = None
    structured: Optional[str] = None
    with trace("chaos.scenario", mode=mode, seed=seed), \
            tempfile.TemporaryDirectory(prefix=f"chaos-{mode}-") as workdir:
        policy = ChaosPolicy(mode=mode, seed=seed, workdir=workdir)
        checkpoint = os.path.join(workdir, "campaign.npz")
        source = ChaosSource(SynthSource(), policy)
        common = dict(
            checkpoint_path=checkpoint,
            n_workers=n_workers,
            max_retries=3,
            worker_timeout_s=10.0,
            watchdog_timeout_s=3.0,
            backoff_s=0.05,
            handle_signals=False,
            chaos=policy,
        )
        try:
            if mode in CHECKPOINT_MODES:
                # Phase 1: run serially to the injection point, writing
                # after every batch so a previous generation exists; the
                # policy damages the save of the injection batch.
                per_batch = {**common, "checkpoint_interval_s": 0}
                try:
                    run_campaign_supervised(
                        source,
                        config,
                        stop_after_batches=policy.inject_at_batch,
                        **{**per_batch, "n_workers": 1},
                    )
                except CampaignInterrupted:
                    pass
                # Phase 2: resume over the damaged file.
                result = run_campaign_supervised(source, config, **per_batch)
            else:
                result = run_campaign_supervised(source, config, **common)
        except _STRUCTURED as exc:
            structured = type(exc).__name__
        except Exception as exc:
            # Anything with campaign context counts as structured; a
            # bare pool/OS exception is a contract violation.
            from ..leakage.acquisition import CampaignBatchError

            if isinstance(exc, (CampaignBatchError, ValueError)):
                structured = type(exc).__name__
            else:
                structured = None
                raise
        finally:
            injected = policy.injected

    seconds = time.perf_counter() - t0
    if result is None:
        outcome = ScenarioResult(
            mode=mode, seed=seed, injected=injected, recovered=False,
            bitwise=False, structured_error=structured, seconds=seconds,
        )
    else:
        bitwise = bool(
            np.array_equal(result.t1, reference.t1)
            and np.array_equal(result.t2, reference.t2)
            and np.array_equal(result.t3, reference.t3)
        )
        outcome = ScenarioResult(
            mode=mode,
            seed=seed,
            injected=injected,
            recovered=True,
            bitwise=bitwise,
            stats=result.stats.robustness_events(),
            seconds=seconds,
        )
    _LOG.info(
        "chaos scenario %s seed=%d: injected=%s recovered=%s bitwise=%s "
        "(%.2fs)",
        mode, seed, outcome.injected, outcome.recovered, outcome.bitwise,
        seconds,
    )
    return outcome


def run_chaos_matrix(
    modes: Sequence[str] = FAILURE_MODES,
    seeds: Sequence[int] = (0,),
    quick: bool = True,
) -> List[ScenarioResult]:
    """The full failure-mode x seed matrix, in deterministic order."""
    results = []
    for mode in modes:
        for seed in seeds:
            results.append(run_chaos_scenario(mode, seed=seed, quick=quick))
    return results
