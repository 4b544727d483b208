"""Integration tests: tracing/metrics across the campaign runners.

The observability contract, end to end:

* a traced campaign is **bitwise identical** to an untraced one —
  spans observe the clock, never the data path;
* worker spans propagate across process boundaries (``fork`` *and*
  ``spawn``) and root under the parent's ``campaign.run`` span;
* ``CampaignStats`` reads its counters from the registry: a serial run
  moves no pipe bytes and compiles its schedules, a warmed pool run
  replays them and ships its shards through the pipe;
* the merged trace explains the run: direct children cover >= 90% of
  the ``campaign.run`` wall-clock on the supervised packed workload;
* the ``python -m repro obs`` CLI records, summarises and converts.
"""

import json
import multiprocessing
import tempfile
import warnings

import numpy as np
import pytest

from repro.core.sequences import INPUT_NAMES, SequenceSource
from repro.leakage.acquisition import CampaignConfig, run_campaign
from repro.leakage.supervisor import run_campaign_supervised
from repro.obs.cli import main as obs_main
from repro.obs.export import from_chrome, read_jsonl
from repro.obs.summary import coverage, phase_stats
from repro.obs.trace import disable_tracing, enable_tracing


@pytest.fixture(autouse=True)
def _tracing_off():
    disable_tracing()
    yield
    disable_tracing()


def _bitwise_equal(a, b):
    return (
        np.array_equal(a.t1, b.t1)
        and np.array_equal(a.t2, b.t2)
        and np.array_equal(a.t3, b.t3)
    )


def _source():
    return SequenceSource(INPUT_NAMES, n_instances=8)


def _run_parallel_traced(start_method):
    """One traced 2-worker campaign; returns (result, spans)."""
    config = CampaignConfig(
        n_traces=256,
        batch_size=64,
        noise_sigma=1.0,
        seed=7,
        n_workers=2,
        start_method=start_method,
        label=f"obs.it.{start_method}",
    )
    tracer = enable_tracing()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # 2 workers on small CI hosts
            result = run_campaign(_source(), config)
        spans = tracer.drain()
    finally:
        disable_tracing()
    return result, spans


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_cross_process_span_propagation(start_method):
    """Worker spans reach the parent and root under campaign.run.

    ``fork`` inherits the parent's enabled tracer (which the worker
    must replace, not append to); ``spawn`` starts cold and must be
    enabled purely from the shipped trace context.  Both must produce
    one coherent tree.
    """
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} start method unavailable")
    result, spans = _run_parallel_traced(start_method)

    untraced = run_campaign(
        _source(),
        CampaignConfig(
            n_traces=256, batch_size=64, noise_sigma=1.0, seed=7,
            label="obs.it.untraced",
        ),
    )
    assert _bitwise_equal(result, untraced)

    pids = {s["pid"] for s in spans}
    assert len(pids) >= 2, "no worker-process spans made it back"

    runs = [s for s in spans if s["name"] == "campaign.run"]
    assert len(runs) == 1
    run_span = runs[0]
    assert all(s["trace_id"] == run_span["trace_id"] for s in spans)

    batches = [s for s in spans if s["name"] == "campaign.batch"]
    assert len(batches) == 4
    assert {s["parent_id"] for s in batches} == {run_span["span_id"]}
    assert all(s["pid"] != run_span["pid"] for s in batches)

    phases = phase_stats(spans)
    assert {"simulate", "noise", "accumulate", "merge"} <= set(phases)
    assert phases["simulate"]["count"] == 4


#: The ``CampaignStats.as_dict()`` keys every JSON artifact carries.
STATS_KEYS = {
    "label", "n_traces", "batch_size", "n_batches", "requested_workers",
    "n_workers", "cpu_count", "oversubscribed", "start_method",
    "transport", "wall_seconds", "warmup_seconds", "traces_per_second",
    "pipe_bytes", "schedule_compiles", "schedule_replays",
    "clamped_events", "pool_rebuilds", "restarts", "watchdog_kills",
    "checkpoint_restores", "checkpoints_quarantined",
    "quarantined_batches", "skipped_traces", "scavenged_segments",
    "batch_seconds", "phases",
}


def test_serial_campaign_counters_come_from_the_registry():
    """A cold serial run compiles its schedules and uses no pipe."""
    config = CampaignConfig(
        n_traces=512, batch_size=128, noise_sigma=1.0, seed=3,
        label="obs.it.serial",
    )
    stats = run_campaign(_source(), config).stats
    assert stats.pipe_bytes == 0
    assert stats.schedule_compiles > 0
    assert set(stats.as_dict()) == STATS_KEYS


def test_supervised_packed_traced_run_contract():
    """The acceptance bar: supervised parallel packed campaign, traced.

    Bitwise-identical to the untraced run, warmed workers replay every
    schedule, per-phase breakdown attached and rendered, and the span
    tree covers >= 90% of the campaign.run wall-clock.
    """
    from repro.eval.report import campaign_stats_panel

    def config(label):
        return CampaignConfig(
            n_traces=2048, batch_size=256, noise_sigma=1.0, seed=0,
            n_workers=2, pack_traces=True, label=label,
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with tempfile.TemporaryDirectory() as workdir:
            untraced = run_campaign_supervised(
                _source(), config("obs.sup.untraced"),
                checkpoint_path=f"{workdir}/untraced.npz",
                handle_signals=False,
            )

        tracer = enable_tracing()
        try:
            with tempfile.TemporaryDirectory() as workdir:
                traced = run_campaign_supervised(
                    _source(), config("obs.sup.traced"),
                    checkpoint_path=f"{workdir}/traced.npz",
                    checkpoint_interval_s=0,  # a checkpoint span per batch
                    handle_signals=False,
                )
            spans = tracer.drain()
        finally:
            disable_tracing()

    assert _bitwise_equal(traced, untraced)
    for stats in (traced.stats, untraced.stats):
        assert stats.schedule_compiles == 0  # warmed before forking
        assert stats.schedule_replays > 0
        assert stats.pipe_bytes > 0
        assert set(stats.as_dict()) == STATS_KEYS
    assert untraced.stats.phases == {}  # untraced runs stay clean

    assert coverage(spans) >= 0.90
    phases = traced.stats.phases
    assert {"simulate", "merge", "checkpoint"} <= set(phases)
    assert phases["simulate"]["count"] == 8
    assert all(p["total_s"] >= 0 for p in phases.values())

    panel = campaign_stats_panel(traced.stats)
    assert "phases:" in panel
    assert "simulate" in panel and "share" in panel

    pool_setups = [s for s in spans if s["name"] == "campaign.pool_setup"]
    checkpoints = [s for s in spans if s["name"] == "campaign.checkpoint"]
    assert pool_setups and checkpoints
    run_id = next(
        s["span_id"] for s in spans if s["name"] == "campaign.run"
    )
    assert all(s["parent_id"] == run_id for s in pool_setups)


def test_obs_cli_record_summary_convert(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    chrome = tmp_path / "trace.json"
    rc = obs_main([
        "record", "--n-traces", "128", "--batch-size", "32",
        "--out", str(out), "--chrome", str(chrome),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "wrote" in stdout and "coverage" in stdout

    spans = read_jsonl(out)
    assert spans
    assert any(s["name"] == "campaign.run" for s in spans)
    payload = json.loads(chrome.read_text())
    assert payload["otherData"]["schema"] == "repro_obs_trace/v1"
    assert len(payload["traceEvents"]) == len(spans)
    # the Chrome file reconstructs the exact same spans
    assert {s["span_id"] for s in from_chrome(payload)} == {
        s["span_id"] for s in spans
    }

    assert obs_main(["summary", str(out)]) == 0
    assert "self ms" in capsys.readouterr().out

    chrome2 = tmp_path / "converted.json"
    assert obs_main(["convert", str(out), str(chrome2)]) == 0
    capsys.readouterr()
    assert json.loads(chrome2.read_text()) == payload

    # tracing is global state; the CLI must leave it off
    from repro.obs.trace import tracing_enabled

    assert not tracing_enabled()


def test_obs_cli_record_compile(tmp_path, capsys):
    out = tmp_path / "compile.jsonl"
    rc = obs_main(["record", "--what", "compile", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    names = {s["name"] for s in read_jsonl(out)}
    assert {"compile.lower", "compile.emit", "certify.functional"} <= names
