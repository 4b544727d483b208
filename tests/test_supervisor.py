"""Tests for the hardened campaign supervisor.

Covers the v2 checkpoint format (CRC, double-buffered generations,
quarantine of corrupt files), resumable interruption, poison-batch
quarantine and the validation of runner arguments — everything short of
real process-level failure, which lives in ``test_chaos.py`` and
``test_hard_crash_resume.py``.
"""

import glob
import json
import os
import signal

import numpy as np
import pytest

from repro.leakage.acquisition import (
    CampaignBatchError,
    CampaignConfig,
    run_campaign,
)
from repro.leakage.supervisor import (
    SUPERVISOR_CHECKPOINT_VERSION,
    CampaignInterrupted,
    _BatchFailureLog,
    load_checkpoint_supervised,
    marker_path,
    run_campaign_supervised,
    save_checkpoint_supervised,
    validate_runner_args,
)
from repro.leakage.transport import new_campaign_prefix, scavenge_orphans
from repro.leakage.tvla import TTestAccumulator
from repro.obs import metrics as obs_metrics

CFG = dict(n_traces=1000, batch_size=100, noise_sigma=0.5, seed=11)


class Synth:
    """Leaky synthetic source drawing all randomness from the batch rng."""

    def __init__(self, n_samples=16):
        self.n_samples = n_samples

    def acquire(self, fixed_mask, rng):
        tr = rng.normal(0.0, 1.0, (fixed_mask.shape[0], self.n_samples))
        tr[fixed_mask] += 0.05
        return tr


class PoisonBatch(Synth):
    """Raises forever on one specific batch, identified by its mask.

    The batch-``index`` rng stream is ``default_rng([seed, index])`` and
    the fixed mask is its first draw, so matching the precomputed mask
    pins the failure to exactly one batch index in every worker.
    """

    def __init__(self, config, index, n_samples=16):
        super().__init__(n_samples)
        rng = np.random.default_rng([config.seed, index])
        self.poison_mask = rng.integers(0, 2, size=config.batch_size).astype(
            bool
        )

    def acquire(self, fixed_mask, rng):
        if np.array_equal(fixed_mask, self.poison_mask):
            raise RuntimeError("poison batch")
        return super().acquire(fixed_mask, rng)


def _acc(n_samples=16, n=200, seed=1):
    rng = np.random.default_rng(seed)
    acc = TTestAccumulator(n_samples)
    acc.update(
        rng.normal(size=(n, n_samples)), rng.integers(0, 2, n).astype(bool)
    )
    return acc


def assert_same_result(a, b):
    assert a.n_traces == b.n_traces
    assert np.array_equal(a.t1, b.t1)
    assert np.array_equal(a.t2, b.t2)
    assert np.array_equal(a.t3, b.t3)


# ----------------------------------------------------------------------
# checkpoint format v2
# ----------------------------------------------------------------------
def test_supervised_checkpoint_roundtrip(tmp_path):
    cfg = CampaignConfig(**CFG, label="v2")
    acc = _acc()
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint_supervised(
        path, acc, cfg, next_batch=3, restarts=2, watchdog_kills=1,
        quarantined=[5],
    )
    loaded = load_checkpoint_supervised(path, cfg, 16)
    assert loaded is not None
    assert loaded.next_batch == 3
    assert loaded.restarts == 2
    assert loaded.watchdog_kills == 1
    assert loaded.quarantined == [5]
    assert not loaded.used_fallback
    assert np.array_equal(loaded.acc.t_stats(1), acc.t_stats(1))
    assert not os.path.exists(path + ".tmp")


def test_crc_detects_bitflip(tmp_path):
    cfg = CampaignConfig(**CFG, label="crc")
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint_supervised(path, _acc(), cfg, next_batch=2)
    with open(path, "rb+") as f:
        f.seek(os.path.getsize(path) // 2)
        byte = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([byte[0] ^ 0xFF]))
    with pytest.warns(RuntimeWarning, match="quarantin"):
        loaded = load_checkpoint_supervised(path, cfg, 16)
    assert loaded is None
    assert not os.path.exists(path)
    assert os.path.exists(path + ".corrupt")


def test_truncated_file_falls_back_to_previous_generation(tmp_path):
    cfg = CampaignConfig(**CFG, label="fallback")
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint_supervised(path, _acc(n=100), cfg, next_batch=1)
    save_checkpoint_supervised(path, _acc(n=200), cfg, next_batch=2)
    assert os.path.exists(path + ".prev")
    with open(path, "rb+") as f:
        f.truncate(os.path.getsize(path) // 3)
    before = obs_metrics.snapshot()
    with pytest.warns(RuntimeWarning):
        loaded = load_checkpoint_supervised(path, cfg, 16)
    quarantined = obs_metrics.snapshot().diff(before)
    assert quarantined.counter("supervisor.checkpoints_quarantined") == 1
    assert loaded is not None
    assert loaded.used_fallback
    assert loaded.next_batch == 1
    assert os.path.exists(path + ".corrupt")


def test_zero_length_checkpoint_tolerated(tmp_path):
    cfg = CampaignConfig(**CFG, label="zero")
    path = str(tmp_path / "ckpt.npz")
    open(path, "wb").close()
    with pytest.warns(RuntimeWarning):
        assert load_checkpoint_supervised(path, cfg, 16) is None
    assert os.path.exists(path + ".corrupt")


def test_v1_checkpoint_quarantined_not_crashed(tmp_path):
    """A pre-supervisor (v1) checkpoint is set aside, not a crash."""
    cfg = CampaignConfig(**CFG, label="v1")
    path = str(tmp_path / "ckpt.npz")
    # The v1 layout: accumulator state and fingerprint, no CRC and no
    # recovery counters.
    with open(path, "wb") as f:
        np.savez(
            f,
            **_acc().state(),
            version=np.asarray(1, dtype=np.int64),
            next_batch=np.asarray(2, dtype=np.int64),
            n_traces=np.asarray(cfg.n_traces, dtype=np.int64),
            batch_size=np.asarray(cfg.batch_size, dtype=np.int64),
            noise_sigma=np.asarray(cfg.noise_sigma, dtype=np.float64),
            seed=np.asarray(cfg.seed, dtype=np.int64),
            label=np.asarray(cfg.label),
        )
    with pytest.warns(RuntimeWarning):
        assert load_checkpoint_supervised(path, cfg, 16) is None
    assert os.path.exists(path + ".corrupt")


def test_fingerprint_mismatch_still_raises(tmp_path):
    cfg = CampaignConfig(**CFG, label="fp")
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint_supervised(path, _acc(), cfg, next_batch=1)
    other = CampaignConfig(**{**CFG, "seed": 12}, label="fp")
    with pytest.raises(ValueError, match="different campaign"):
        load_checkpoint_supervised(path, other, 16)
    with pytest.raises(ValueError, match="samples"):
        load_checkpoint_supervised(path, cfg, 32)


def test_missing_checkpoint_returns_none(tmp_path):
    cfg = CampaignConfig(**CFG)
    assert load_checkpoint_supervised(str(tmp_path / "no.npz"), cfg, 16) is None


# ----------------------------------------------------------------------
# supervised runs
# ----------------------------------------------------------------------
def test_supervised_serial_matches_run_campaign(tmp_path):
    cfg = CampaignConfig(**CFG, label="serial")
    path = str(tmp_path / "ckpt.npz")
    res = run_campaign_supervised(
        Synth(), cfg, path, n_workers=1, handle_signals=False
    )
    assert_same_result(res, run_campaign(Synth(), cfg))
    # every sidecar file is cleaned up after success
    for suffix in ("", ".prev", ".tmp", ".interrupted"):
        assert not os.path.exists(path + suffix)
    assert scavenge_orphans() == []


def test_supervised_parallel_matches_serial(tmp_path):
    cfg = CampaignConfig(**CFG, label="par")
    res = run_campaign_supervised(
        Synth(), cfg, str(tmp_path / "ckpt.npz"), n_workers=2,
        handle_signals=False,
    )
    assert_same_result(res, run_campaign(Synth(), cfg))
    assert scavenge_orphans() == []


class SignalProbe:
    """Chaos hook: each pool worker records its signal dispositions."""

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def worker_setup(self):
        path = os.path.join(self.out_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as f:
            json.dump(
                {
                    "sigterm_default": signal.getsignal(signal.SIGTERM)
                    is signal.SIG_DFL,
                    "sigint_ignored": signal.getsignal(signal.SIGINT)
                    is signal.SIG_IGN,
                },
                f,
            )


def test_forked_workers_do_not_inherit_signal_handlers(tmp_path):
    # An inherited SIGTERM handler kept Pool.terminate() from killing a
    # worker blocked on the task-queue lock, so pool teardown hung.
    before = signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGINT)
    cfg = CampaignConfig(**CFG, label="signals", start_method="fork")
    res = run_campaign_supervised(
        Synth(), cfg, str(tmp_path / "ckpt.npz"), n_workers=2,
        handle_signals=True, chaos=SignalProbe(str(tmp_path)),
    )
    assert_same_result(res, run_campaign(Synth(), cfg))
    reports = []
    for path in glob.glob(str(tmp_path / "worker-*.json")):
        with open(path) as f:
            reports.append(json.load(f))
    assert reports
    assert all(r == {"sigterm_default": True, "sigint_ignored": True}
               for r in reports)
    # the parent's own handlers are restored after the run
    after = signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGINT)
    assert after == before
    assert scavenge_orphans() == []


def test_stop_after_batches_interrupts_resumably(tmp_path):
    cfg = CampaignConfig(**CFG, label="slice")
    path = str(tmp_path / "ckpt.npz")
    with pytest.raises(CampaignInterrupted) as ei:
        run_campaign_supervised(
            Synth(), cfg, path, n_workers=1, handle_signals=False,
            stop_after_batches=3,
        )
    assert ei.value.next_batch == 3
    assert ei.value.reason == "stop_after_batches"
    with open(marker_path(path)) as f:
        marker = json.load(f)
    assert marker["next_batch"] == 3
    assert marker["n_batches"] == 10
    # resume finishes the campaign bitwise
    res = run_campaign_supervised(
        Synth(), cfg, path, n_workers=1, handle_signals=False
    )
    assert res.stats.restarts == 1
    assert_same_result(res, run_campaign(Synth(), cfg))
    assert not os.path.exists(marker_path(path))


def test_resume_with_both_generations_corrupt_counts_both(tmp_path):
    """No loadable generation: the run starts fresh and bitwise, and its
    stats count both files it set aside."""
    cfg = CampaignConfig(**CFG, label="both-corrupt")
    path = str(tmp_path / "ckpt.npz")
    with pytest.raises(CampaignInterrupted):
        run_campaign_supervised(
            Synth(), cfg, path, n_workers=1, handle_signals=False,
            checkpoint_interval_s=0, stop_after_batches=3,
        )
    for generation in (path, path + ".prev"):
        with open(generation, "rb+") as f:
            f.write(b"\xff" * 16)
    with pytest.warns(RuntimeWarning, match="quarantin"):
        res = run_campaign_supervised(
            Synth(), cfg, path, n_workers=1, handle_signals=False
        )
    assert res.stats.checkpoints_quarantined == 2
    assert res.stats.checkpoint_restores == 0
    assert res.stats.restarts == 0
    assert_same_result(res, run_campaign(Synth(), cfg))
    assert os.path.exists(path + ".corrupt")
    assert os.path.exists(path + ".prev.corrupt")


def test_cleanup_false_keeps_loadable_checkpoint(tmp_path):
    cfg = CampaignConfig(**CFG, label="keep")
    path = str(tmp_path / "ckpt.npz")
    run_campaign_supervised(
        Synth(), cfg, path, n_workers=1, handle_signals=False, cleanup=False
    )
    loaded = load_checkpoint_supervised(path, cfg, 16)
    assert loaded is not None
    assert loaded.next_batch == 10
    assert loaded.acc.n_traces == cfg.n_traces


def test_poison_batch_quarantined_with_explicit_trace_accounting(tmp_path):
    """A batch failing across >= 2 pool generations is quarantined: the
    campaign finishes, reports the skipped index and subtracts its
    traces explicitly instead of dying."""
    cfg = CampaignConfig(**CFG, label="poison")
    res = run_campaign_supervised(
        PoisonBatch(cfg, index=4), cfg, str(tmp_path / "ckpt.npz"),
        n_workers=2, max_retries=1, backoff_s=0.05, handle_signals=False,
    )
    assert res.stats.quarantined_batches == [4]
    assert res.stats.skipped_traces == cfg.batch_size
    assert res.n_traces == cfg.n_traces - cfg.batch_size
    assert res.stats.robustness_events()["quarantined_batches"] == 1
    assert scavenge_orphans() == []


def test_quarantine_disabled_reproduces_abort(tmp_path):
    cfg = CampaignConfig(**CFG, label="abort")
    with pytest.raises(CampaignBatchError) as ei:
        run_campaign_supervised(
            PoisonBatch(cfg, index=4), cfg, str(tmp_path / "ckpt.npz"),
            n_workers=2, max_retries=1, backoff_s=0.05,
            handle_signals=False, quarantine_batches=False,
        )
    assert ei.value.batch_index == 4


def test_scavenger_unlinks_an_empty_half_created_segment():
    """A worker killed between ``shm_open`` and ``ftruncate`` leaves an
    empty segment under the campaign prefix; the scan must unlink it
    rather than fail to map it (which broke every later scavenge)."""
    _posixshmem = pytest.importorskip("_posixshmem")
    prefix = new_campaign_prefix()
    name = f"{prefix}-{os.getpid()}-1"
    fd = _posixshmem.shm_open(
        "/" + name, os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600
    )
    os.close(fd)
    assert scavenge_orphans(prefix) == [name]
    assert scavenge_orphans(prefix) == []


# ----------------------------------------------------------------------
# argument validation (no-progress combinations rejected up front)
# ----------------------------------------------------------------------
def test_invalid_runner_args_rejected(tmp_path):
    cfg = CampaignConfig(**CFG)
    path = str(tmp_path / "c.npz")
    for kwargs in (
        dict(max_retries=-1),
        dict(worker_timeout_s=0.0),
        dict(backoff_s=-1.0),
        dict(stop_after_batches=0),
    ):
        with pytest.raises(ValueError):
            run_campaign_supervised(
                Synth(), cfg, path, n_workers=1, handle_signals=False,
                **kwargs,
            )


def test_timeout_shorter_than_warmup_rejected():
    with pytest.raises(ValueError, match="warm-up"):
        validate_runner_args(worker_timeout_s=0.5, warmup_batch_s=2.0)


def test_batch_failure_log_poison_semantics():
    log = _BatchFailureLog()
    log.record(3, "pool-1")
    log.record(3, "pool-1")
    log.record(3, "pool-1")
    # many failures from a single origin never condemn the batch
    assert not log.is_poison(3, max_retries=2)
    log.record(3, "pool-2")
    assert log.is_poison(3, max_retries=2)
    assert not log.is_poison(3, max_retries=10)


def test_checkpoint_version_constant_is_two():
    assert SUPERVISOR_CHECKPOINT_VERSION == 2
