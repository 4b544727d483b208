"""Tests for the one campaign batch loop behind every runner.

``run_campaign``, ``detect_leakage_traces``, ``run_campaign_resilient``
and ``run_campaign_supervised`` all drive the same loop, so one
differential test covers them: each must reproduce serial
``run_campaign`` bit for bit, with the same batch and schedule-compile
accounting as ``run_campaign`` on the same worker count.  The loop's
two guarantees beyond that are pinned here too: a serial campaign never
pays for a warm-up, and a pool worker that dies mid-batch costs a pool
rebuild (or serial degradation), never a hang.
"""

import json
import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.core.sequences import SequenceSource
from repro.leakage import (
    CampaignConfig,
    detect_leakage_traces,
    run_campaign,
    run_campaign_resilient,
    run_campaign_supervised,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A first-order-safe secAND2 input order: with the PRNG refresh the
#: first-order t-test stays clean, so detection runs to the end.
SAFE_ORDER = ("y0", "x0", "x1", "y1")

CFG = CampaignConfig(
    n_traces=256, batch_size=64, noise_sigma=1.0, seed=5, label="loop"
)


def _source():
    # A fresh circuit per run: the schedule cache is per circuit, so
    # every run starts cold and its compile count is comparable.
    return SequenceSource(SAFE_ORDER, n_instances=8)


def _detect(source, config, n_workers, path):
    detected, result = detect_leakage_traces(source, config, n_workers=n_workers)
    assert detected is None  # clean source: the loop ran to the end
    return result


RUNNERS = {
    "run_campaign": lambda src, cfg, n, path: run_campaign(src, cfg, n_workers=n),
    "detect_leakage_traces": _detect,
    "run_campaign_resilient": lambda src, cfg, n, path: run_campaign_resilient(
        src, cfg, path, n_workers=n
    ),
    "run_campaign_supervised": lambda src, cfg, n, path: run_campaign_supervised(
        src, cfg, path, n_workers=n, handle_signals=False
    ),
}


def _quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 2 workers on a 1-CPU host
        return fn(*args)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_every_runner_reproduces_serial_run_campaign(runner, n_workers, tmp_path):
    serial = run_campaign(_source(), CFG, n_workers=1)
    same_topology = (
        serial if n_workers == 1
        else _quiet(run_campaign, _source(), CFG, n_workers)
    )
    path = str(tmp_path / "ckpt.npz")
    result = _quiet(RUNNERS[runner], _source(), CFG, n_workers, path)
    assert result.n_traces == serial.n_traces
    assert np.array_equal(result.t1, serial.t1)
    assert np.array_equal(result.t2, serial.t2)
    assert np.array_equal(result.t3, serial.t3)
    assert result.stats.n_batches == same_topology.stats.n_batches == 4
    assert (
        result.stats.schedule_compiles == same_topology.stats.schedule_compiles
    )
    assert not os.path.exists(path)  # checkpointed runners clean up


class CountingWarmup:
    """Clean synthetic source that counts its ``warmup()`` calls."""

    n_samples = 16

    def __init__(self):
        self.warmups = 0

    def warmup(self):
        self.warmups += 1
        return ()

    def acquire(self, fixed_mask, rng):
        return rng.normal(0.0, 1.0, (fixed_mask.shape[0], self.n_samples))


def test_serial_campaign_never_warms_up(tmp_path):
    """A warm-up of a DES source costs about a quarter of a 512-trace
    serial campaign; the serial path must never pay it."""
    path = str(tmp_path / "ckpt.npz")
    source = CountingWarmup()
    run_campaign(source, CFG)
    detect_leakage_traces(source, CFG)
    run_campaign_supervised(source, CFG, path, n_workers=1, handle_signals=False)
    assert source.warmups == 0
    # a worker_timeout_s is validated against a measured warm-up ...
    run_campaign_supervised(
        source, CFG, path, n_workers=1, handle_signals=False,
        worker_timeout_s=30.0,
    )
    assert source.warmups == 1
    # ... and a fork pool is warmed once, in the parent, before forking
    fork = CampaignConfig(
        n_traces=256, batch_size=64, noise_sigma=1.0, seed=5,
        start_method="fork",
    )
    _quiet(run_campaign, source, fork, 2)
    assert source.warmups == 2


_DEAD_WORKER_SCRIPT = """
import json, sys
import numpy as np
from repro.leakage import CampaignConfig, run_campaign, run_campaign_supervised
from tests.test_resilient import CFG, KillOnce, Synth

runner, flag, path = sys.argv[1:]
config = CampaignConfig(**CFG, label="dead-worker")
if runner == "run_campaign":
    result = run_campaign(KillOnce(flag), config, n_workers=2)
else:
    result = run_campaign_supervised(KillOnce(flag), config, path, n_workers=2)
reference = run_campaign(Synth(), config)
print(json.dumps({
    "bitwise": all(
        np.array_equal(getattr(result, t), getattr(reference, t))
        for t in ("t1", "t2", "t3")
    ),
    "pool_rebuilds": result.stats.pool_rebuilds,
}))
"""


@pytest.mark.parametrize("runner", ["run_campaign", "run_campaign_supervised"])
def test_dead_worker_does_not_hang_the_campaign(runner, tmp_path):
    """A SIGKILLed pool worker loses its task; with no timeout set, the
    parent must notice the dead worker instead of waiting forever.

    Runs in a subprocess (own session) so a hang fails the test after
    60 s instead of hanging the suite.
    """
    flag = tmp_path / "killed.flag"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src"), REPO, env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _DEAD_WORKER_SCRIPT, runner, str(flag),
         str(tmp_path / "ckpt.npz")],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{runner} hung after a pool worker was SIGKILLed")
    assert proc.returncode == 0, err
    assert flag.exists()  # the kill really happened
    report = json.loads(out.strip().splitlines()[-1])
    assert report == {"bitwise": True, "pool_rebuilds": 1}
