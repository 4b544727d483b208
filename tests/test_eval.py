"""Smoke tests of the experiment registry (reduced budgets).

Full-budget runs are recorded in EXPERIMENTS.md; these check that every
experiment module runs end to end, renders, and satisfies the *stable*
qualitative properties at small scale.
"""

import numpy as np
import pytest

from repro.eval import EXPERIMENTS, table1, table2, table3, traces
from repro.eval.report import render_table, rule, sparkline, tvla_panel


def test_registry_covers_every_table_and_figure():
    assert set(EXPERIMENTS) == {
        "table1", "table2", "table3", "fig13", "fig14", "fig15", "fig16",
        "fig17", "fault_sweep", "compile_costs",
    }


def test_every_experiment_has_quick_budgets():
    from repro.__main__ import _QUICK_KWARGS

    assert set(_QUICK_KWARGS) == set(EXPERIMENTS)


def test_table1_subset_run_and_render():
    res = table1.run(
        n_traces=12_000,
        sequences=[("y0", "y1", "x1", "x0"), ("x0", "x1", "y0", "y1")],
    )
    assert res.all_match_paper
    out = res.render()
    assert "Table I" in out
    assert "LEAKS" in out and "clean" in out


def test_table2_run_and_render():
    res = table2.run(n_traces=12_000)
    assert res.matches_paper
    assert res.chain_functional_ok
    assert res.chain_is_clean
    out = res.render()
    assert "DelayUnits" in out


def test_table3_run_and_render():
    res = table3.run()
    out = res.render()
    assert "secAND2-FF" in out and "DOM-indep [17]" in out
    ff, pd = res.measured
    assert ff.cycles_per_round == 7
    assert pd.cycles_per_round == 2
    assert ff.rand_per_round == pd.rand_per_round == 14
    assert ff.max_freq_mhz > pd.max_freq_mhz
    assert pd.asic_ge > pd.asic_ge_no_delay


@pytest.mark.parametrize("variant", ["ff", "pd"])
def test_power_trace_experiment(variant):
    res = traces.run(variant=variant, n_traces=16)
    assert res.n_rounds_detected == 16
    assert res.rounds_uniform
    out = res.render()
    assert "power trace" in out


def test_render_table_alignment():
    out = render_table(["a", "bb"], [[1, 22], [333, 4]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")


def test_sparkline_shapes():
    assert sparkline(np.zeros(10)) == " " * 10
    s = sparkline(np.linspace(0, 1, 200), width=50)
    assert len(s) == 50
    assert s[-1] == "@"
    assert sparkline(np.array([])) == ""


def test_tvla_panel_marks_leaks():
    from repro.leakage.tvla import TvlaResult

    res = TvlaResult("x", 100, np.array([9.0]), np.array([0.1]), np.array([0.1]))
    panel = tvla_panel(res)
    assert "LEAK" in panel
    assert "t2" in panel


def test_rule_width():
    assert len(rule(10)) == 10


@pytest.mark.slow
def test_compile_costs_all_targets_certify_and_match_hand_built():
    from repro.eval import compile_costs

    res = compile_costs.run()
    assert len(res.rows) == 10
    assert res.all_certified
    assert res.des_within_25pct
    out = res.render()
    assert "des_sbox0" in out and "aes_sbox" in out and "within 25%: yes" in out
