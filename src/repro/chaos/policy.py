"""Seeded, deterministic failure injection for campaign supervision.

A chaos run must be *reproducible*: "the campaign survived seed 7" has
to mean the same kills, hangs and corruptions happen again under seed
7.  Two rules make that possible without disturbing the statistics
under test:

1. **No batch-RNG draws.**  Injection decisions never consume from the
   per-batch generator — they are derived from the policy seed and a
   per-process call counter — so the simulated traces (and therefore
   the bitwise-equality oracle against an undisturbed run) are
   untouched.
2. **Exactly-once via the filesystem.**  Worker-side injections are
   guarded by an ``O_CREAT | O_EXCL`` flag file shared by all workers:
   whichever worker reaches the trigger first takes the flag and
   injects; retries and respawned workers find it taken and behave.
   The flag doubles as the harness's proof that the failure really
   fired.

:class:`ChaosPolicy` is picklable (plain fields only): it travels into
pool workers inside the :class:`~repro.chaos.harness.ChaosSource` that
calls it.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field

__all__ = ["FAILURE_MODES", "WORKER_MODES", "CHECKPOINT_MODES", "ChaosPolicy"]

#: Worker-seam injections: fire inside a pool worker's batch.
WORKER_MODES = ("kill_worker", "hang_worker", "raise_in_batch")

#: Checkpoint-seam injections: fire on the checkpoint file after a save.
CHECKPOINT_MODES = ("corrupt_checkpoint", "truncate_checkpoint")

#: Every injectable failure mode, in documentation order.
FAILURE_MODES = WORKER_MODES + CHECKPOINT_MODES


def _take_flag(path: str) -> bool:
    """Atomically claim the one-shot injection flag; True for the winner."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


@dataclass
class ChaosPolicy:
    """One failure mode plus the seeded schedule that triggers it.

    Attributes:
        mode: One of :data:`FAILURE_MODES`.
        seed: Schedule seed; determines on which acquire call (worker
            modes) or checkpoint generation (checkpoint modes) the
            injection fires.
        workdir: Directory for the one-shot flag file (the harness
            points this at the scenario's temp dir).
        hang_s: How long ``hang_worker`` sleeps — far beyond any
            watchdog, never returning within a test's patience.
    """

    mode: str
    seed: int = 0
    workdir: str = "."
    hang_s: float = 120.0
    _calls: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in FAILURE_MODES:
            raise ValueError(
                f"mode must be one of {FAILURE_MODES}, got {self.mode!r}"
            )

    # -- seeded schedule ------------------------------------------------
    @property
    def trigger_call(self) -> int:
        """Worker modes: inject on this (0-based) acquire call."""
        return self.seed % 3

    @property
    def inject_at_batch(self) -> int:
        """Checkpoint modes: corrupt the save of this batch boundary."""
        return 2 + self.seed % 3

    @property
    def flag_path(self) -> str:
        return os.path.join(self.workdir, f"chaos-{self.mode}.injected")

    @property
    def injected(self) -> bool:
        """Whether the scheduled failure actually fired."""
        return os.path.exists(self.flag_path)

    # -- supervisor seam -----------------------------------------------
    def post_checkpoint(self, path: str, next_batch: int) -> None:
        """Checkpoint seam: damage the file the save just produced."""
        if self.mode not in CHECKPOINT_MODES:
            return
        if next_batch != self.inject_at_batch:
            return
        if not _take_flag(self.flag_path):
            return
        if self.mode == "truncate_checkpoint":
            with open(path, "rb+") as f:
                f.truncate(max(0, os.path.getsize(path) // 3))
        else:  # corrupt_checkpoint: flip a byte run inside the payload
            with open(path, "rb+") as f:
                f.seek(os.path.getsize(path) // 2)
                chunk = bytearray(f.read(64))
                for k in range(len(chunk)):
                    chunk[k] ^= 0xFF
                f.seek(os.path.getsize(path) // 2)
                f.write(bytes(chunk))

    # -- worker-side injections ----------------------------------------
    def maybe_inject_in_acquire(self) -> None:
        """Called by :class:`~repro.chaos.harness.ChaosSource` per acquire.

        Only fires in pool workers (never the parent: killing the
        supervisor is outside the failure model — that case is covered
        by the hard-crash resume tests, which SIGKILL a whole campaign
        subprocess).
        """
        if self.mode not in WORKER_MODES:
            return
        import multiprocessing

        if multiprocessing.parent_process() is None:
            return
        call = self._calls
        self._calls += 1
        if call != self.trigger_call:
            return
        if not _take_flag(self.flag_path):
            return
        if self.mode == "kill_worker":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.mode == "hang_worker":
            time.sleep(self.hang_s)
        elif self.mode == "raise_in_batch":
            raise RuntimeError(
                "chaos: injected deterministic batch failure "
                f"(seed {self.seed}, call {call})"
            )
