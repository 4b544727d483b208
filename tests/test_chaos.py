"""Tests for the deterministic chaos harness.

Fast modes (checkpoint damage, in-batch exception) run in tier-1 CI;
the process-level modes (kill, hang) need multi-second
watchdog waits and are ``slow``-marked — CI's resilience job runs the
full matrix via ``python -m repro chaos``.
"""

import json

import pytest

from repro.chaos import (
    CHECKPOINT_MODES,
    FAILURE_MODES,
    WORKER_MODES,
    ChaosPolicy,
    ScenarioResult,
    run_chaos_scenario,
)
from repro.chaos.cli import main as chaos_main


def _assert_contract(res):
    assert res.injected, f"injection never fired: {res.row()}"
    assert res.ok, f"chaos contract violated: {res.row()}"


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------
def test_failure_modes_partition():
    assert set(FAILURE_MODES) == set(WORKER_MODES) | set(CHECKPOINT_MODES)
    assert not set(WORKER_MODES) & set(CHECKPOINT_MODES)


def test_policy_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode must be one of"):
        ChaosPolicy(mode="set_fire_to_rack")


def test_policy_schedule_is_seed_deterministic(tmp_path):
    for seed in range(6):
        a = ChaosPolicy(mode="kill_worker", seed=seed, workdir=str(tmp_path))
        b = ChaosPolicy(mode="kill_worker", seed=seed, workdir=str(tmp_path))
        assert a.trigger_call == b.trigger_call
        assert a.inject_at_batch == b.inject_at_batch
    # distinct seeds cover distinct injection points
    calls = {ChaosPolicy(mode="kill_worker", seed=s).trigger_call
             for s in range(3)}
    assert calls == {0, 1, 2}


def test_policy_injection_is_one_shot(tmp_path):
    policy = ChaosPolicy(
        mode="corrupt_checkpoint", seed=0, workdir=str(tmp_path)
    )
    ckpt = tmp_path / "c.npz"
    ckpt.write_bytes(b"x" * 256)
    assert not policy.injected
    policy.post_checkpoint(str(ckpt), policy.inject_at_batch)
    assert policy.injected
    damaged = ckpt.read_bytes()
    policy.post_checkpoint(str(ckpt), policy.inject_at_batch)
    assert ckpt.read_bytes() == damaged  # second trigger is a no-op


def test_checkpoint_mode_verdict_requires_the_fallback():
    """A checkpoint scenario that restarted from scratch is bitwise equal
    too; only a quarantine plus a restore shows the fallback ran."""
    fallback = {"checkpoint_restores": 1, "checkpoints_quarantined": 1}
    for mode in CHECKPOINT_MODES:
        def verdict(stats):
            return ScenarioResult(
                mode=mode, seed=0, injected=True, recovered=True,
                bitwise=True, stats=stats,
            ).ok

        assert verdict(fallback)
        assert not verdict({})
        assert not verdict({**fallback, "checkpoint_restores": 0})
        assert not verdict({**fallback, "checkpoints_quarantined": 0})
    assert ScenarioResult(
        mode="kill_worker", seed=0, injected=True, recovered=True,
        bitwise=True,
    ).ok


def test_parent_process_never_killed(tmp_path):
    """Worker-mode injections are inert outside pool workers."""
    policy = ChaosPolicy(mode="kill_worker", seed=0, workdir=str(tmp_path))
    policy.maybe_inject_in_acquire()  # in the test process: must not kill
    assert not policy.injected


# ----------------------------------------------------------------------
# scenarios: fast modes in tier-1
# ----------------------------------------------------------------------
def test_corrupt_checkpoint_recovers_bitwise():
    res = run_chaos_scenario("corrupt_checkpoint", seed=0)
    _assert_contract(res)
    assert res.recovered and res.bitwise
    assert res.stats.get("checkpoint_restores") == 1
    assert res.stats.get("checkpoints_quarantined") == 1


def test_truncate_checkpoint_recovers_bitwise():
    res = run_chaos_scenario("truncate_checkpoint", seed=1)
    _assert_contract(res)
    assert res.recovered and res.bitwise
    assert res.stats.get("checkpoint_restores") == 1


def test_raise_in_batch_recovers_bitwise():
    res = run_chaos_scenario("raise_in_batch", seed=0)
    _assert_contract(res)
    assert res.recovered and res.bitwise


# ----------------------------------------------------------------------
# scenarios: process-level modes (watchdog waits) are slow-marked
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("mode", ["kill_worker", "hang_worker"])
def test_process_failure_recovers_bitwise(mode):
    res = run_chaos_scenario(mode, seed=0)
    _assert_contract(res)
    assert res.recovered and res.bitwise


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2])
def test_kill_worker_other_seeds(seed):
    _assert_contract(run_chaos_scenario("kill_worker", seed=seed))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_single_mode_json(tmp_path, capsys):
    out = tmp_path / "chaos.json"
    rc = chaos_main(["--mode", "corrupt_checkpoint", "--json", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "1/1 scenarios ok" in printed
    payload = json.loads(out.read_text())
    assert payload["schema"] == "chaos_matrix/v2"
    assert payload["ok"] is True
    (scenario,) = payload["scenarios"]
    assert scenario["mode"] == "corrupt_checkpoint"
    assert scenario["injected"] and scenario["bitwise"]


def test_cli_rejects_unknown_mode(capsys):
    with pytest.raises(SystemExit):
        chaos_main(["--mode", "nonsense"])
