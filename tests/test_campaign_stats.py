"""Campaign observability, transport and worker-topology tests.

Covers the pieces added after the v1 parallel-campaign regression
(0.92x "speedup" from 4 workers on 1 core, full accumulators through
the result pipe, per-worker schedule recompiles):

* :class:`repro.leakage.stats.CampaignStats` attached to every
  :class:`TvlaResult` and its derived readings;
* the worker shard (the accumulator's checkpoint snapshot) staying
  bitwise-lossless, at every payload size;
* ``n_workers`` / ``batch_size`` resolution against the host
  (``auto``, clamping, :class:`OversubscriptionWarning`).
"""

import contextlib
import os

import numpy as np
import pytest

from repro.leakage.acquisition import (
    CampaignConfig,
    OversubscriptionWarning,
    detect_leakage_traces,
    resolve_n_workers,
    run_campaign,
    suggest_batch_size,
)
from repro.leakage.stats import BatchRecord, CampaignStats
from repro.leakage.transport import pack_shard, unpack_shard
from repro.leakage.tvla import TTestAccumulator


class SyntheticSource:
    """Leaky toy source (picklable; mirrors test_acquisition)."""

    def __init__(self, leak=0.0, n_samples=8):
        self.n_samples = n_samples
        self.leak = leak

    def acquire(self, fixed_mask, rng):
        n = fixed_mask.shape[0]
        traces = rng.normal(10.0, 1.0, (n, self.n_samples)).astype(np.float32)
        traces[fixed_mask, 3] += self.leak
        return traces


def _maybe_oversub(n_workers):
    """Warning context for pool runs on a host with too few CPUs."""
    if n_workers > (os.cpu_count() or 1):
        return pytest.warns(OversubscriptionWarning)
    return contextlib.nullcontext()


# ----------------------------------------------------------------------
# CampaignStats on results
# ----------------------------------------------------------------------
def test_serial_campaign_attaches_stats():
    cfg = CampaignConfig(
        n_traces=3500, batch_size=1000, noise_sigma=0.0, seed=0, label="s"
    )
    res = run_campaign(SyntheticSource(leak=0.5), cfg)
    s = res.stats
    assert isinstance(s, CampaignStats)
    assert s.label == "s"
    assert s.n_workers == 1
    assert s.start_method == "serial"
    assert s.n_batches == 4
    assert [b.n_traces for b in s.batches] == [1000, 1000, 1000, 500]
    assert s.wall_seconds > 0
    assert s.traces_per_second > 0
    assert s.pipe_bytes == 0


def test_parallel_campaign_stats_record_topology_and_traffic():
    cfg = CampaignConfig(
        n_traces=4000, batch_size=1000, noise_sigma=0.0, seed=1,
    )
    with _maybe_oversub(2):
        res = run_campaign(SyntheticSource(leak=0.5), cfg, n_workers=2)
    s = res.stats
    assert s.requested_workers == 2
    assert s.n_workers == 2
    assert s.cpu_count == (os.cpu_count() or 1)
    assert s.oversubscribed == (2 > s.cpu_count)
    assert s.start_method in ("fork", "spawn", "forkserver")
    # 4 batches x (2, 6, 8) float64 moments + pickle overhead
    assert s.pipe_bytes >= 4 * 2 * 6 * 8 * 8
    assert s.n_batches == 4


def test_detect_leakage_attaches_stats():
    cfg = CampaignConfig(
        n_traces=4000, batch_size=1000, noise_sigma=0.0, seed=3
    )
    with _maybe_oversub(2):
        detected, res = detect_leakage_traces(
            SyntheticSource(leak=1.0), cfg, n_workers=2
        )
    assert res.stats is not None


def test_stats_as_dict_and_summary():
    s = CampaignStats(
        label="x", n_traces=100, batch_size=50, requested_workers=2,
        n_workers=2, cpu_count=4, start_method="fork",
        wall_seconds=2.0,
        batches=[BatchRecord(0, 50, 0.5), BatchRecord(1, 50, 1.0)],
        counters={
            "transport.pipe_bytes": 200,
            "schedule_cache.compiles": 1,
            "schedule_cache.hits": 3,
            "supervisor.watchdog_kills": 1,
        },
    )
    d = s.as_dict()
    assert d["n_batches"] == 2
    assert d["traces_per_second"] == 50.0
    assert d["pipe_bytes"] == 200
    assert d["schedule_compiles"] == 1
    assert d["schedule_replays"] == 3
    assert d["clamped_events"] == 0  # absent from the diff: nothing moved
    assert s.robustness_events() == {"watchdog_kills": 1}
    assert d["batch_seconds"] == {"min": 0.5, "median": 0.75, "max": 1.0}
    import json

    json.dumps(d)  # must be JSON-serialisable as-is
    text = s.summary()
    assert "traces/s" in text and "pipe 200 B" in text


# ----------------------------------------------------------------------
# worker shards
# ----------------------------------------------------------------------
def _filled_accumulator(n_samples=32, seed=5):
    r = np.random.default_rng(seed)
    acc = TTestAccumulator(n_samples)
    acc.update(
        r.normal(4.0, 1.0, (200, n_samples)).astype(np.float32),
        r.integers(0, 2, 200).astype(bool),
    )
    return acc


def test_pack_unpack_roundtrip_is_bitwise():
    """The worker shard and the checkpoint snapshot are one format."""
    acc = _filled_accumulator()
    back = unpack_shard(pack_shard(acc))
    restored = TTestAccumulator.from_state(acc.state())
    for other in (back, restored):
        assert other._fixed.n == acc._fixed.n
        assert other._random.n == acc._random.n
        assert np.array_equal(other._fixed.sums, acc._fixed.sums)
        assert np.array_equal(other._random.sums, acc._random.sums)
    for order in (1, 2, 3):
        t = back.t_stats(order)
        assert np.array_equal(t, restored.t_stats(order))
        assert np.array_equal(t, acc.t_stats(order))


def test_wide_trace_campaign_bitwise_equals_serial():
    """11 000 samples per trace: a shard above 1 MiB still crosses the
    pool's result pipe whole and merges bitwise."""
    n_samples = 11_000
    cfg = CampaignConfig(
        n_traces=160, batch_size=48, noise_sigma=1.0, seed=17
    )
    source = SyntheticSource(leak=0.4, n_samples=n_samples)
    serial = run_campaign(source, cfg, n_workers=1)
    with _maybe_oversub(2):
        parallel = run_campaign(source, cfg, n_workers=2)
    n_batches = parallel.stats.n_batches
    assert n_batches == 4
    assert parallel.stats.n_workers == 2
    assert parallel.stats.pipe_bytes >= n_batches * 2 * 6 * n_samples * 8
    assert np.array_equal(serial.t1, parallel.t1)
    assert np.array_equal(serial.t2, parallel.t2)
    assert np.array_equal(serial.t3, parallel.t3)


# ----------------------------------------------------------------------
# worker / batch-size resolution
# ----------------------------------------------------------------------
def test_resolve_n_workers_auto_matches_host_and_plan():
    assert resolve_n_workers("auto", n_batches=100, cpu_count=4) == 4
    assert resolve_n_workers("auto", n_batches=2, cpu_count=4) == 2
    assert resolve_n_workers("auto", n_batches=100, cpu_count=1) == 1


def test_resolve_n_workers_clamps_to_batches():
    # idle workers are pointless: 8 requested, only 3 batches to run
    assert resolve_n_workers(8, n_batches=3, cpu_count=16) == 3


def test_resolve_n_workers_warns_on_oversubscription():
    with pytest.warns(OversubscriptionWarning, match="4 workers on a 2-CPU"):
        n = resolve_n_workers(4, n_batches=100, cpu_count=2)
    assert n == 4  # honoured, not clamped


def test_resolve_n_workers_serial_never_warns():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_n_workers(1, n_batches=10, cpu_count=1) == 1


def test_suggest_batch_size_heuristic():
    # >= 4 batches per worker once the campaign is big enough
    assert suggest_batch_size(100_000, 4) == 100_000 // 16
    # floor: small campaigns still get vectorisation-worthy batches
    assert suggest_batch_size(2000, 4) == 256
    # ceiling: huge campaigns cap the per-worker residency
    assert suggest_batch_size(10_000_000, 4) == 8192
    # tiny campaigns: one batch of everything
    assert suggest_batch_size(100, 1) == 100


def test_config_autotune_sets_workers_and_batch():
    cfg = CampaignConfig(n_traces=100_000, batch_size=1)
    tuned = cfg.autotune(cpu_count=4)
    assert tuned.n_workers == 4
    # the default pack_traces="auto" selects the packed engine at this
    # size, so the suggestion is rounded to the 64-trace lane width
    assert tuned.batch_size == suggest_batch_size(
        100_000, 4, pack_traces="auto"
    )
    assert tuned.batch_size % 64 == 0
    assert tuned.n_traces == cfg.n_traces  # everything else untouched
    tiny = CampaignConfig(n_traces=100).autotune(cpu_count=8)
    assert tiny.n_workers == 1


def test_config_n_workers_auto_runs_and_matches_serial():
    cfg = CampaignConfig(
        n_traces=2000, batch_size=500, noise_sigma=0.0, seed=7,
        n_workers="auto",
    )
    auto = run_campaign(SyntheticSource(leak=0.5), cfg)
    ref = run_campaign(SyntheticSource(leak=0.5), cfg, n_workers=1)
    assert np.array_equal(auto.t1, ref.t1)
    assert auto.stats.n_workers <= (os.cpu_count() or 1)
