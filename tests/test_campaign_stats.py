"""Campaign observability, transport and worker-topology tests.

Covers the pieces added after the v1 parallel-campaign regression
(0.92x "speedup" from 4 workers on 1 core, full accumulators through
the result pipe, per-worker schedule recompiles):

* :class:`repro.leakage.stats.CampaignStats` attached to every
  :class:`TvlaResult` and its derived readings;
* the shard transports (``pickle`` / ``shared_memory`` / ``auto``)
  staying bitwise-lossless;
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
from repro.leakage.transport import (
    SHM_THRESHOLD_BYTES,
    ShardPayload,
    pack_shard,
    resolve_transport,
    shared_memory_available,
    unpack_shard,
)
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
    assert s.transport == "none"
    assert s.n_batches == 4
    assert [b.n_traces for b in s.batches] == [1000, 1000, 1000, 500]
    assert s.wall_seconds > 0
    assert s.traces_per_second > 0
    assert s.pipe_bytes == 0


def test_parallel_campaign_stats_record_topology_and_traffic():
    cfg = CampaignConfig(
        n_traces=4000, batch_size=1000, noise_sigma=0.0, seed=1,
        transport="pickle",
    )
    with _maybe_oversub(2):
        res = run_campaign(SyntheticSource(leak=0.5), cfg, n_workers=2)
    s = res.stats
    assert s.requested_workers == 2
    assert s.n_workers == 2
    assert s.cpu_count == (os.cpu_count() or 1)
    assert s.oversubscribed == (2 > s.cpu_count)
    assert s.transport == "pickle"
    assert s.start_method in ("fork", "spawn", "forkserver")
    # 4 batches x (2, 6, 8) float64 moments + pickle overhead
    assert s.pipe_bytes >= 4 * 2 * 6 * 8 * 8
    assert s.n_batches == 4


def test_detect_leakage_attaches_stats_and_forces_pickle():
    cfg = CampaignConfig(
        n_traces=4000, batch_size=1000, noise_sigma=0.0, seed=3
    )
    with _maybe_oversub(2):
        detected, res = detect_leakage_traces(
            SyntheticSource(leak=1.0), cfg, n_workers=2
        )
    assert res.stats is not None
    # auto transport must resolve to pickle here: early cancellation
    # could strand shared-memory segments of in-flight batches
    assert res.stats.transport == "pickle"


def test_stats_as_dict_and_summary():
    s = CampaignStats(
        label="x", n_traces=100, batch_size=50, requested_workers=2,
        n_workers=2, cpu_count=4, start_method="fork", transport="pickle",
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
    assert "traces/s" in text and "transport=pickle" in text


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------
def _filled_accumulator(n_samples=32, seed=5):
    r = np.random.default_rng(seed)
    acc = TTestAccumulator(n_samples)
    acc.update(
        r.normal(4.0, 1.0, (200, n_samples)).astype(np.float32),
        r.integers(0, 2, 200).astype(bool),
    )
    return acc


@pytest.mark.parametrize("transport", ["pickle", "shared_memory"])
def test_pack_unpack_roundtrip_is_bitwise(transport):
    if transport == "shared_memory" and not shared_memory_available():
        pytest.skip("shared_memory unavailable")
    acc = _filled_accumulator()
    payload = pack_shard(acc, transport)
    assert payload.pipe_bytes > 0
    if transport == "shared_memory":
        assert payload.moments is None and payload.shm_name
        # only the segment name crosses the pipe
        assert payload.pipe_bytes < 1024
    back = unpack_shard(payload)
    assert back._fixed.n == acc._fixed.n
    assert back._random.n == acc._random.n
    assert np.array_equal(back._fixed.sums, acc._fixed.sums)
    assert np.array_equal(back._random.sums, acc._random.sums)
    for order in (1, 2, 3):
        assert np.array_equal(back.t_stats(order), acc.t_stats(order))


def test_shared_memory_campaign_bitwise_equals_serial():
    if not shared_memory_available():
        pytest.skip("shared_memory unavailable")
    cfg = CampaignConfig(
        n_traces=2000, batch_size=500, noise_sigma=1.0, seed=13,
        transport="shared_memory",
    )
    serial = run_campaign(SyntheticSource(leak=0.4), cfg, n_workers=1)
    with _maybe_oversub(2):
        parallel = run_campaign(SyntheticSource(leak=0.4), cfg, n_workers=2)
    assert parallel.stats.transport == "shared_memory"
    # 4 batches: only segment names crossed the pipe
    assert parallel.stats.pipe_bytes < 4 * 1024
    assert np.array_equal(serial.t1, parallel.t1)
    assert np.array_equal(serial.t2, parallel.t2)
    assert np.array_equal(serial.t3, parallel.t3)


def test_resolve_transport_auto_switches_on_payload_size():
    small = SHM_THRESHOLD_BYTES // (2 * 6 * 8) // 2
    assert resolve_transport("auto", small) == "pickle"
    if shared_memory_available():
        big = SHM_THRESHOLD_BYTES // (2 * 6 * 8) + 1
        assert resolve_transport("auto", big) == "shared_memory"
    assert resolve_transport("pickle", 10**9) == "pickle"


def test_resolve_transport_rejects_unknown():
    with pytest.raises(ValueError, match="transport"):
        resolve_transport("carrier-pigeon", 100)


def test_config_rejects_unknown_transport_eagerly():
    with pytest.raises(ValueError, match="transport"):
        CampaignConfig(transport="typo")


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
