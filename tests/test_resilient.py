"""Tests for checkpointed, fault-tolerant campaign runs.

The contract under test: ``run_campaign_resilient`` (the deprecated
alias of ``run_campaign_supervised`` without quarantine or signal
handlers) produces the bitwise-identical :class:`TvlaResult` of a plain
serial ``run_campaign`` for every combination of interruption, resume
and worker death; ``save_checkpoint`` / ``load_checkpoint`` keep their
``(accumulator, next_batch)`` contract over the v2 format.  The
uninterrupted serial and parallel runs are covered for every runner by
``tests/test_campaign_loop.py``.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.leakage.acquisition import (
    CampaignBatchError,
    CampaignConfig,
    run_campaign,
)
from repro.leakage import (
    load_checkpoint,
    run_campaign_resilient,
    save_checkpoint,
)
from repro.leakage.tvla import TTestAccumulator

CFG = dict(n_traces=1000, batch_size=100, noise_sigma=0.5, seed=7)


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


def assert_same_result(a, b):
    assert a.n_traces == b.n_traces
    assert np.array_equal(a.t1, b.t1)
    assert np.array_equal(a.t2, b.t2)
    assert np.array_equal(a.t3, b.t3)


# ----------------------------------------------------------------------
# checkpoint format
# ----------------------------------------------------------------------
def test_accumulator_state_roundtrip():
    rng = np.random.default_rng(0)
    acc = TTestAccumulator(8)
    acc.update(rng.normal(size=(50, 8)), rng.integers(0, 2, 50).astype(bool))
    clone = TTestAccumulator.from_state(acc.state())
    assert clone.n_traces == acc.n_traces
    assert np.array_equal(clone.t_stats(1), acc.t_stats(1))
    assert np.array_equal(clone.t_stats(3), acc.t_stats(3))


def test_checkpoint_roundtrip(tmp_path):
    cfg = CampaignConfig(**CFG, label="roundtrip")
    rng = np.random.default_rng(1)
    acc = TTestAccumulator(16)
    acc.update(rng.normal(size=(200, 16)), rng.integers(0, 2, 200).astype(bool))
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, acc, cfg, next_batch=2)
    loaded, next_batch = load_checkpoint(path, cfg, n_samples=16)
    assert next_batch == 2
    assert np.array_equal(loaded.t_stats(1), acc.t_stats(1))
    # no tmp file left behind by the atomic write
    assert not os.path.exists(path + ".tmp")


def test_load_checkpoint_missing_returns_none(tmp_path):
    cfg = CampaignConfig(**CFG)
    assert load_checkpoint(str(tmp_path / "nope.npz"), cfg, 16) is None


def test_checkpoint_fingerprint_mismatch_rejected(tmp_path):
    cfg = CampaignConfig(**CFG, label="fp")
    acc = TTestAccumulator(16)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, acc, cfg, next_batch=1)
    other = CampaignConfig(**{**CFG, "seed": 8}, label="fp")
    with pytest.raises(ValueError, match="different campaign"):
        load_checkpoint(path, other, 16)
    with pytest.raises(ValueError, match="samples"):
        load_checkpoint(path, cfg, 32)


# ----------------------------------------------------------------------
# resilient runner
# ----------------------------------------------------------------------
def test_crash_then_resume_is_bitwise_identical(tmp_path):
    cfg = CampaignConfig(**CFG, label="resume")
    path = str(tmp_path / "ckpt.npz")
    with pytest.raises(CampaignBatchError) as ei:
        run_campaign_resilient(CrashOnCall(4), cfg, path, n_workers=1)
    assert ei.value.batch_index == 4
    assert ei.value.label == "resume"
    # the completed prefix was persisted
    loaded, next_batch = load_checkpoint(path, cfg, 16)
    assert next_batch == 4
    assert loaded.n_traces == 400
    # resume with a healthy source: bitwise equal to the uninterrupted run
    res = run_campaign_resilient(Synth(), cfg, path, n_workers=1)
    assert_same_result(res, run_campaign(Synth(), cfg))
    assert not os.path.exists(path)


def test_resume_with_sparse_checkpoints_is_bitwise(tmp_path):
    """checkpoint_every > 1 re-simulates a few batches after resume but
    still reproduces the serial float64 addition sequence."""
    cfg = CampaignConfig(**CFG, label="sparse")
    path = str(tmp_path / "ckpt.npz")
    with pytest.raises(CampaignBatchError):
        run_campaign_resilient(
            CrashOnCall(5), cfg, path, n_workers=1, checkpoint_every=3
        )
    res = run_campaign_resilient(
        Synth(), cfg, path, n_workers=1, checkpoint_every=3
    )
    assert_same_result(res, run_campaign(Synth(), cfg))


def test_resume_false_starts_from_scratch(tmp_path):
    cfg = CampaignConfig(**CFG, label="fresh")
    path = str(tmp_path / "ckpt.npz")
    with pytest.raises(CampaignBatchError):
        run_campaign_resilient(CrashOnCall(2), cfg, path, n_workers=1)
    res = run_campaign_resilient(Synth(), cfg, path, n_workers=1, resume=False)
    assert_same_result(res, run_campaign(Synth(), cfg))


def test_cleanup_false_keeps_final_checkpoint(tmp_path):
    cfg = CampaignConfig(**CFG, label="keep")
    path = str(tmp_path / "ckpt.npz")
    run_campaign_resilient(Synth(), cfg, path, n_workers=1, cleanup=False)
    loaded, next_batch = load_checkpoint(path, cfg, 16)
    assert next_batch == 10
    assert loaded.n_traces == cfg.n_traces


def test_checkpoint_every_validated(tmp_path):
    cfg = CampaignConfig(**CFG)
    with pytest.raises(ValueError, match="checkpoint_every"):
        run_campaign_resilient(Synth(), cfg, str(tmp_path / "c.npz"),
                               checkpoint_every=0)


def test_deterministic_worker_failure_not_retried(tmp_path):
    """Source exceptions re-raise immediately (they would fail again);
    only worker deaths and timeouts are retried."""
    cfg = CampaignConfig(**CFG, label="det")
    with pytest.raises(CampaignBatchError) as ei:
        run_campaign_resilient(
            CrashOnCall(0), cfg, str(tmp_path / "ckpt.npz"), n_workers=2
        )
    assert ei.value.batch_index == 0
    assert "injected fault" in str(ei.value)


@pytest.mark.slow
def test_killed_worker_is_retried_and_result_bitwise(tmp_path):
    """A SIGKILLed worker costs one timeout + pool rebuild, not the
    campaign: the final result still equals the serial run bit for bit."""
    cfg = CampaignConfig(**CFG, label="kill")
    flag = tmp_path / "killed.flag"
    res = run_campaign_resilient(
        KillOnce(flag),
        cfg,
        str(tmp_path / "ckpt.npz"),
        n_workers=2,
        worker_timeout_s=3.0,
        max_retries=2,
        backoff_s=0.05,
    )
    assert flag.exists()  # the kill really happened
    assert_same_result(res, run_campaign(Synth(), cfg))


@pytest.mark.slow
def test_exhausted_retries_degrade_to_serial(tmp_path):
    """With zero retries the runner immediately falls back to in-process
    serial execution and still finishes with the exact result."""
    cfg = CampaignConfig(**CFG, label="degrade")
    flag = tmp_path / "killed.flag"
    res = run_campaign_resilient(
        KillOnce(flag),
        cfg,
        str(tmp_path / "ckpt.npz"),
        n_workers=2,
        worker_timeout_s=2.0,
        max_retries=0,
        backoff_s=0.05,
    )
    assert flag.exists()
    assert_same_result(res, run_campaign(Synth(), cfg))
