"""Tests for the one campaign batch loop behind every runner.

``run_campaign``, ``detect_leakage_traces`` and
``run_campaign_supervised`` all drive the same loop, so one
differential test covers them: each must reproduce serial
``run_campaign`` bit for bit, with the same batch and schedule-compile
accounting as ``run_campaign`` on the same worker count.  The loop's
guarantees beyond that are pinned here too: a serial campaign never
pays for a warm-up, a pool worker that dies mid-batch costs a pool
rebuild (or serial degradation), never a hang, a crashed or interrupted
campaign resumes bitwise, and checkpoints follow the
``checkpoint_interval_s`` time cadence.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.core.sequences import SequenceSource
from repro.leakage import (
    CampaignBatchError,
    CampaignConfig,
    CampaignInterrupted,
    TTestAccumulator,
    detect_leakage_traces,
    load_checkpoint_supervised,
    run_campaign,
    run_campaign_supervised,
    save_checkpoint_supervised,
)
from repro.leakage import supervisor
from repro.obs import metrics as obs_metrics

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
    "run_campaign_supervised": lambda src, cfg, n, path: run_campaign_supervised(
        src, cfg, path, n_workers=n, handle_signals=False
    ),
}


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 2 workers on a 1-CPU host
        return fn(*args, **kwargs)


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
from tests.test_campaign_loop import SYNTH_CFG as CFG, KillOnce, Synth

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


# ----------------------------------------------------------------------
# crash, resume and retry under the supervised runner
# ----------------------------------------------------------------------
SYNTH_CFG = dict(n_traces=1000, batch_size=100, noise_sigma=0.5, seed=7)


class Synth:
    """Leaky synthetic source drawing all randomness from the batch rng."""

    def __init__(self, n_samples=16):
        self.n_samples = n_samples

    def acquire(self, fixed_mask, rng):
        tr = rng.normal(0.0, 1.0, (fixed_mask.shape[0], self.n_samples))
        tr[fixed_mask] += 0.05
        return tr


class CrashOnCall(Synth):
    """Raises on the Nth acquire call (serial: call N == batch N)."""

    def __init__(self, crash_call, n_samples=16):
        super().__init__(n_samples)
        self.crash_call = crash_call
        self.calls = 0

    def acquire(self, fixed_mask, rng):
        if self.calls == self.crash_call:
            raise RuntimeError("injected fault")
        self.calls += 1
        return super().acquire(fixed_mask, rng)


class KillOnce(Synth):
    """SIGKILLs the first worker process that acquires a batch.

    The kill happens at most once (guarded by an O_EXCL flag file shared
    across the forked workers) and only in a worker — the parent and the
    serial path are never killed.
    """

    def __init__(self, flag_path, n_samples=16):
        super().__init__(n_samples)
        self.flag = str(flag_path)

    def acquire(self, fixed_mask, rng):
        if multiprocessing.parent_process() is not None:
            try:
                fd = os.open(self.flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
        return super().acquire(fixed_mask, rng)


def _supervised(source, config, path, **kwargs):
    """The supervised runner without quarantine or signal handlers."""
    return run_campaign_supervised(
        source, config, path, quarantine_batches=False, handle_signals=False,
        **kwargs,
    )


def assert_same_result(a, b):
    assert a.n_traces == b.n_traces
    assert np.array_equal(a.t1, b.t1)
    assert np.array_equal(a.t2, b.t2)
    assert np.array_equal(a.t3, b.t3)


def test_accumulator_state_roundtrip():
    rng = np.random.default_rng(0)
    acc = TTestAccumulator(8)
    acc.update(rng.normal(size=(50, 8)), rng.integers(0, 2, 50).astype(bool))
    clone = TTestAccumulator.from_state(acc.state())
    assert clone.n_traces == acc.n_traces
    assert np.array_equal(clone.t_stats(1), acc.t_stats(1))
    assert np.array_equal(clone.t_stats(3), acc.t_stats(3))



def test_checkpoint_roundtrip(tmp_path):
    cfg = CampaignConfig(**SYNTH_CFG, label="roundtrip")
    rng = np.random.default_rng(1)
    acc = TTestAccumulator(16)
    acc.update(rng.normal(size=(200, 16)), rng.integers(0, 2, 200).astype(bool))
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint_supervised(path, acc, cfg, next_batch=2)
    loaded = load_checkpoint_supervised(path, cfg, n_samples=16)
    assert loaded.next_batch == 2
    assert np.array_equal(loaded.acc.t_stats(1), acc.t_stats(1))
    # no tmp file left behind by the atomic write
    assert not os.path.exists(path + ".tmp")


def test_load_checkpoint_missing_returns_none(tmp_path):
    cfg = CampaignConfig(**SYNTH_CFG)
    assert load_checkpoint_supervised(str(tmp_path / "nope.npz"), cfg, 16) is None


def test_checkpoint_fingerprint_mismatch_rejected(tmp_path):
    cfg = CampaignConfig(**SYNTH_CFG, label="fp")
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint_supervised(path, TTestAccumulator(16), cfg, next_batch=1)
    other = CampaignConfig(**{**SYNTH_CFG, "seed": 8}, label="fp")
    with pytest.raises(ValueError, match="different campaign"):
        load_checkpoint_supervised(path, other, 16)
    with pytest.raises(ValueError, match="samples"):
        load_checkpoint_supervised(path, cfg, 32)

def test_crash_then_resume_is_bitwise_identical(tmp_path):
    cfg = CampaignConfig(**SYNTH_CFG, label="resume")
    path = str(tmp_path / "ckpt.npz")
    with pytest.raises(CampaignBatchError) as ei:
        _supervised(CrashOnCall(4), cfg, path, n_workers=1)
    assert ei.value.batch_index == 4
    assert ei.value.label == "resume"
    # the completed prefix was persisted
    loaded = load_checkpoint_supervised(path, cfg, 16)
    assert loaded.next_batch == 4
    assert loaded.acc.n_traces == 400
    # resume with a healthy source: bitwise equal to the uninterrupted run
    res = _supervised(Synth(), cfg, path, n_workers=1)
    assert_same_result(res, run_campaign(Synth(), cfg))
    assert not os.path.exists(path)


def test_resume_with_sparse_checkpoints_is_bitwise(tmp_path):
    """An interval longer than the run writes nothing in the loop; the
    crash still persists the merged prefix and the resume is bitwise."""
    cfg = CampaignConfig(**SYNTH_CFG, label="sparse")
    path = str(tmp_path / "ckpt.npz")
    before = obs_metrics.snapshot()
    with pytest.raises(CampaignBatchError):
        _supervised(CrashOnCall(5), cfg, path, n_workers=1,
                    checkpoint_interval_s=1e9)
    written = obs_metrics.snapshot().diff(before)
    assert written.counter("supervisor.checkpoints_written") == 1
    assert load_checkpoint_supervised(path, cfg, 16).next_batch == 5
    res = _supervised(Synth(), cfg, path, n_workers=1,
                      checkpoint_interval_s=1e9)
    assert_same_result(res, run_campaign(Synth(), cfg))


def test_resume_false_starts_from_scratch(tmp_path):
    cfg = CampaignConfig(**SYNTH_CFG, label="fresh")
    path = str(tmp_path / "ckpt.npz")
    with pytest.raises(CampaignBatchError):
        _supervised(CrashOnCall(2), cfg, path, n_workers=1)
    res = _supervised(Synth(), cfg, path, n_workers=1, resume=False)
    assert res.stats.restarts == 0
    assert_same_result(res, run_campaign(Synth(), cfg))


def test_cleanup_false_writes_the_final_state_once(tmp_path):
    cfg = CampaignConfig(**SYNTH_CFG, label="keep")
    path = str(tmp_path / "ckpt.npz")
    before = obs_metrics.snapshot()
    res = _supervised(Synth(), cfg, path, n_workers=1, cleanup=False,
                      checkpoint_interval_s=1e9)
    written = obs_metrics.snapshot().diff(before)
    assert written.counter("supervisor.checkpoints_written") == 1
    assert not os.path.exists(path + ".prev")
    loaded = load_checkpoint_supervised(path, cfg, 16)
    assert loaded.next_batch == 10
    assert loaded.acc.n_traces == cfg.n_traces
    assert np.array_equal(loaded.acc.t_stats(3), res.t3)


def test_deterministic_worker_failure_not_retried(tmp_path):
    """Source exceptions re-raise immediately (they would fail again);
    only worker deaths and timeouts are retried."""
    cfg = CampaignConfig(**SYNTH_CFG, label="det")
    with pytest.raises(CampaignBatchError) as ei:
        _quiet(_supervised, CrashOnCall(0), cfg, str(tmp_path / "ckpt.npz"),
               n_workers=2)
    assert ei.value.batch_index == 0
    assert "injected fault" in str(ei.value)


@pytest.mark.slow
def test_killed_worker_is_retried_and_result_bitwise(tmp_path):
    """A SIGKILLed worker costs one pool rebuild, not the campaign: the
    final result still equals the serial run bit for bit."""
    cfg = CampaignConfig(**SYNTH_CFG, label="kill")
    flag = tmp_path / "killed.flag"
    res = _quiet(
        _supervised, KillOnce(flag), cfg, str(tmp_path / "ckpt.npz"),
        n_workers=2, worker_timeout_s=3.0, max_retries=2, backoff_s=0.05,
    )
    assert flag.exists()  # the kill really happened
    assert res.stats.pool_rebuilds == 1
    assert res.stats.watchdog_kills == 1
    assert_same_result(res, run_campaign(Synth(), cfg))


@pytest.mark.slow
def test_recovery_counts_stay_cumulative_across_a_resume(tmp_path):
    """A kill before an interruption is still counted after the resume:
    the checkpoint's totals enter the resumed run's counters once."""
    cfg = CampaignConfig(**SYNTH_CFG, label="kill-resume")
    flag = tmp_path / "killed.flag"
    path = str(tmp_path / "ckpt.npz")
    with pytest.raises(CampaignInterrupted):
        _quiet(
            _supervised, KillOnce(flag), cfg, path, n_workers=2,
            worker_timeout_s=3.0, max_retries=2, backoff_s=0.05,
            stop_after_batches=3,
        )
    assert flag.exists()  # the kill happened before the stop
    res = _supervised(Synth(), cfg, path, n_workers=1)
    assert res.stats.restarts == 1
    assert res.stats.watchdog_kills == 1
    assert_same_result(res, run_campaign(Synth(), cfg))


@pytest.mark.slow
def test_exhausted_retries_degrade_to_serial(tmp_path):
    """With zero retries the runner immediately falls back to in-process
    serial execution and still finishes with the exact result."""
    cfg = CampaignConfig(**SYNTH_CFG, label="degrade")
    flag = tmp_path / "killed.flag"
    res = _quiet(
        _supervised, KillOnce(flag), cfg, str(tmp_path / "ckpt.npz"),
        n_workers=2, worker_timeout_s=2.0, max_retries=0, backoff_s=0.05,
    )
    assert flag.exists()
    assert_same_result(res, run_campaign(Synth(), cfg))


# ----------------------------------------------------------------------
# checkpoint cadence
# ----------------------------------------------------------------------
class SteppedClock:
    """Stands in for the loop's clock; advanced by hand, never sleeps."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class ClockStepping(Synth):
    """Advances ``clock`` by ``step_s`` per acquired batch (serial path)."""

    def __init__(self, clock, step_s):
        super().__init__()
        self.clock = clock
        self.step_s = step_s

    def acquire(self, fixed_mask, rng):
        self.clock.t += self.step_s
        return super().acquire(fixed_mask, rng)


class SaveLog:
    """Chaos hook recording the ``next_batch`` of every checkpoint write."""

    def __init__(self):
        self.saves = []

    def post_checkpoint(self, path, next_batch):
        self.saves.append(next_batch)


def _checkpoints_written(fn, *args, **kwargs):
    before = obs_metrics.snapshot()
    fn(*args, **kwargs)
    diff = obs_metrics.snapshot().diff(before)
    return diff.counter("supervisor.checkpoints_written")


def test_zero_interval_writes_every_batch_but_the_last(tmp_path, monkeypatch):
    monkeypatch.setattr(supervisor, "_clock", SteppedClock())  # frozen
    cfg = CampaignConfig(**SYNTH_CFG, label="cadence0")
    path = str(tmp_path / "ckpt.npz")
    log = SaveLog()
    assert _checkpoints_written(
        _supervised, Synth(), cfg, path, n_workers=1,
        checkpoint_interval_s=0, chaos=log,
    ) == 9
    assert log.saves == list(range(1, 10))
    assert not os.path.exists(path)
    # cleanup=False adds the one post-loop write of the finished state
    assert _checkpoints_written(
        _supervised, Synth(), cfg, path, n_workers=1,
        checkpoint_interval_s=0, cleanup=False,
    ) == 10


def test_huge_interval_writes_only_on_interrupt(tmp_path, monkeypatch):
    monkeypatch.setattr(supervisor, "_clock", SteppedClock())
    cfg = CampaignConfig(**SYNTH_CFG, label="cadence-huge")
    path = str(tmp_path / "ckpt.npz")
    assert _checkpoints_written(
        _supervised, Synth(), cfg, path, n_workers=1,
        checkpoint_interval_s=1e9,
    ) == 0

    def sliced():
        with pytest.raises(CampaignInterrupted):
            _supervised(Synth(), cfg, path, n_workers=1,
                        checkpoint_interval_s=1e9, stop_after_batches=3)

    assert _checkpoints_written(sliced) == 1
    res = _supervised(Synth(), cfg, path, n_workers=1,
                      checkpoint_interval_s=1e9)
    assert res.stats.restarts == 1
    assert_same_result(res, run_campaign(Synth(), cfg))


def test_write_happens_once_the_clock_passes_the_interval(
    tmp_path, monkeypatch
):
    clock = SteppedClock()
    monkeypatch.setattr(supervisor, "_clock", clock)
    cfg = CampaignConfig(**SYNTH_CFG, label="cadence-clock")
    log = SaveLog()
    # 0.25 s per batch against a 1 s interval: batches 4 and 8 are due,
    # batch 10 is the last and left to the post-loop code.
    res = _supervised(
        ClockStepping(clock, 0.25), cfg, str(tmp_path / "ckpt.npz"),
        n_workers=1, checkpoint_interval_s=1.0, chaos=log,
    )
    assert log.saves == [4, 8]
    assert_same_result(res, run_campaign(Synth(), cfg))


@pytest.mark.parametrize("interval", [-1.0, float("nan")])
def test_invalid_checkpoint_interval_rejected(tmp_path, interval):
    cfg = CampaignConfig(**SYNTH_CFG)
    with pytest.raises(ValueError, match="checkpoint_interval_s"):
        _supervised(Synth(), cfg, str(tmp_path / "c.npz"), n_workers=1,
                    checkpoint_interval_s=interval)
