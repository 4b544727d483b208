"""Hard-crash resume: SIGKILL an entire campaign process, resume bitwise.

The chaos harness kills *workers*; these tests kill the *supervisor
process itself* — the failure model of a scheduler preemption or OOM
kill — at three adversarial points:

* ``batch``      — mid-acquisition, between two checkpoints;
* ``checkpoint`` — inside ``save_checkpoint_supervised``, after the
  previous generation rotated to ``.prev`` but before the new file
  landed (the exact window double-buffering exists for);
* ``final``      — during the final checkpoint flush of a completed
  campaign.

Each subprocess dies with SIGKILL (no atexit, no finally blocks), then
the test resumes in-process and demands the resumed
:class:`TvlaResult` be bitwise-equal to an undisturbed run, with at
least one loadable checkpoint generation on disk in between and zero
orphaned shared-memory segments after.
"""

import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.leakage.acquisition import CampaignConfig, run_campaign
from repro.leakage.supervisor import (
    load_checkpoint_supervised,
    run_campaign_supervised,
)
from repro.leakage.transport import scavenge_orphans

CFG = dict(n_traces=800, batch_size=100, noise_sigma=0.5, seed=23)
N_BATCHES = CFG["n_traces"] // CFG["batch_size"]

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

# Batches completed before the kill, per kill point.  The campaign
# checkpoints after every batch but the last (``checkpoint_interval_s=0``).
# ``batch`` dies on acquire call 3 (3 batches checkpointed);
# ``checkpoint`` dies inside save #4 (the save of next_batch=4, leaving
# next_batch=3 in ``.prev``); ``final`` dies inside the post-loop flush
# (save #N_BATCHES, leaving the in-loop save of next_batch=N_BATCHES - 1
# in ``.prev``).
_EXPECTED_NEXT = {"batch": 3, "checkpoint": 3, "final": N_BATCHES - 1}

SCRIPT = r"""
import os, signal, sys

kill_point, ckpt = sys.argv[1], sys.argv[2]

from repro.leakage.acquisition import CampaignConfig
from repro.leakage import supervisor


class Synth:
    def __init__(self, n_samples=16):
        self.n_samples = n_samples

    def acquire(self, fixed_mask, rng):
        tr = rng.normal(0.0, 1.0, (fixed_mask.shape[0], self.n_samples))
        tr[fixed_mask] += 0.05
        return tr


class KillInBatch(Synth):
    def __init__(self, kill_call):
        super().__init__()
        self.kill_call = kill_call
        self.calls = 0

    def acquire(self, fixed_mask, rng):
        if self.calls == self.kill_call:
            os.kill(os.getpid(), signal.SIGKILL)
        self.calls += 1
        return super().acquire(fixed_mask, rng)


source = Synth()
if kill_point == "batch":
    source = KillInBatch(3)
else:
    kill_at_save = {"checkpoint": 4, "final": 800 // 100}[kill_point]
    real_replace = os.replace
    state = {"saves": 0}

    def killing_replace(src, dst):
        if dst == ckpt:
            state["saves"] += 1
            if state["saves"] == kill_at_save:
                # The previous generation has already rotated to
                # ckpt + ".prev"; die before the new file lands.
                os.kill(os.getpid(), signal.SIGKILL)
        real_replace(src, dst)

    os.replace = killing_replace

config = CampaignConfig(
    n_traces=800, batch_size=100, noise_sigma=0.5, seed=23,
    label="hard-crash",
)
supervisor.run_campaign_supervised(
    source, config, ckpt, n_workers=1, checkpoint_interval_s=0,
    handle_signals=False, cleanup=False,
)
raise SystemExit("campaign survived a kill point that should be fatal")
"""


class Synth:
    def __init__(self, n_samples=16):
        self.n_samples = n_samples

    def acquire(self, fixed_mask, rng):
        tr = rng.normal(0.0, 1.0, (fixed_mask.shape[0], self.n_samples))
        tr[fixed_mask] += 0.05
        return tr


@pytest.mark.parametrize("kill_point", ["batch", "checkpoint", "final"])
def test_sigkilled_campaign_resumes_bitwise(tmp_path, kill_point):
    ckpt = str(tmp_path / "campaign.npz")
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, kill_point, ckpt],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"expected SIGKILL, got {proc.returncode}: {proc.stderr.decode()}"
    )

    cfg = CampaignConfig(**CFG, label="hard-crash")
    loaded = load_checkpoint_supervised(ckpt, cfg, 16)
    assert loaded is not None, "no loadable generation survived the kill"
    assert loaded.next_batch == _EXPECTED_NEXT[kill_point]
    if kill_point in ("checkpoint", "final"):
        # path itself never landed: the survivor is the .prev generation
        assert loaded.used_fallback

    res = run_campaign_supervised(
        Synth(), cfg, ckpt, n_workers=1, handle_signals=False
    )
    ref = run_campaign(Synth(), cfg)
    assert res.stats.restarts == 1
    if kill_point in ("checkpoint", "final"):
        assert res.stats.checkpoint_restores == 1
    assert res.n_traces == ref.n_traces
    assert np.array_equal(res.t1, ref.t1)
    assert np.array_equal(res.t2, ref.t2)
    assert np.array_equal(res.t3, ref.t3)
    # success cleaned every sidecar file and left no shm segments
    for suffix in ("", ".prev", ".tmp", ".interrupted", ".corrupt"):
        assert not os.path.exists(ckpt + suffix)
    assert scavenge_orphans() == []
