"""Tests for the exact glitch-extended probing verifier."""

import json

import numpy as np
import pytest

from repro.core.gadgets import build_secand2
from repro.faults.models import shift_gate_delay
from repro.netlist.safety import count_violations
from repro.verify import (
    MAX_INPUT_BITS,
    GadgetSpec,
    VerificationBudgetError,
    counterexample_vcd,
    pd_bank_spec,
    preset_spec,
    tabulate_probes,
    verify,
    verify_fault_sweep,
    witness_waveforms,
)
from repro.verify.cli import main as cli_main
from repro.verify.presets import PRESETS


# ----------------------------------------------------------------------
# the paper's qualitative results
# ----------------------------------------------------------------------
def test_secand2_pd_exactly_secure():
    """Fig. 3: correct DelayUnit schedule -> 0 leaking probes, exact."""
    result = verify(preset_spec("secand2_pd"))
    assert result.secure
    assert result.n_leaking == 0
    assert result.n_probes == 9  # every wire of the gadget is probed


def test_y1_not_last_leak_with_counterexample():
    """Table I: y1 arriving before the x shares leaks, and the verifier
    hands back a concrete (secret pair, mask assignment, trace)."""
    spec = preset_spec("secand2_pd_y1_early")
    result = verify(spec)
    assert not result.secure
    probe = result.leaks[0]
    assert probe.count_hi > probe.count_lo
    assert probe.bias > 0
    assert probe.secret_hi != probe.secret_lo
    # the witness is a complete, valid input assignment
    assert set(probe.witness) == set(spec.input_bits)
    # and it is consistent with the hi secret class
    packed = 0
    for j, name in enumerate(spec.secret_names):
        v = 0
        for _, shares in [s for s in spec.secrets if s[0] == name]:
            for sh in shares:
                v ^= probe.witness[sh]
        packed |= v << j
    assert spec.decode_secret(packed) == probe.secret_hi


def test_table1_good_vs_bad_sequence():
    good = verify(preset_spec("secand2_good_order"))
    bad = verify(preset_spec("secand2_bad_order"))
    assert good.secure
    assert not bad.secure
    # the leak sits on the gadget outputs, as Table I derives
    assert {p.wire_name for p in bad.leaks} == {"i0_z0_o", "i0_z1_o"}


@pytest.mark.parametrize(
    "name", ["secand2_ff", "dom_indep", "ti_and3", "secure_f_xy"]
)
def test_protected_constructions_secure(name):
    assert verify(preset_spec(name)).secure


@pytest.mark.parametrize(
    "name", ["trichina_late_x", "insecure_f_xy", "pchain3_pd"]
)
def test_known_leaky_constructions_flagged(name):
    assert not verify(preset_spec(name)).secure


def test_all_presets_match_expectations():
    """The machine-checked form of the paper's qualitative claims."""
    for preset in PRESETS.values():
        if preset.expect_secure is None:
            continue
        result = verify(preset.build())
        assert result.secure == preset.expect_secure, preset.name


def test_leak_count_correlates_with_static_violations():
    """Exact leaking probes appear exactly where the static checker
    counts a y1-not-last violation, across a mis-sizing ladder."""
    leaking, violations = [], []
    for spec_name in ("secand2_pd", "secand2_pd_y1_early"):
        spec = preset_spec(spec_name)
        leaking.append(verify(spec).n_leaking > 0)
        violations.append(
            count_violations(spec.circuit)["y1-not-last"] > 0
        )
    assert leaking == violations == [False, True]


# ----------------------------------------------------------------------
# mechanics: enumeration, chunking, budget, spec validation
# ----------------------------------------------------------------------
def test_chunked_equals_unchunked():
    """Chunk boundaries must be invisible in the tabulation."""
    spec = preset_spec("secand2_bad_order")
    whole = tabulate_probes(spec, chunk_size=1 << 14)
    pieces = tabulate_probes(spec, chunk_size=3)  # ragged chunks
    assert whole.leaking_wires == pieces.leaking_wires
    for w in whole.probes:
        a, b = whole.probes[w].counts, pieces.probes[w].counts
        assert set(a) == set(b)
        for key in a:
            assert np.array_equal(a[key], b[key])


def test_budget_error():
    spec = preset_spec("secand2_pd")
    with pytest.raises(VerificationBudgetError) as err:
        verify(spec, max_input_bits=3)
    assert err.value.n_bits == 4
    assert err.value.max_bits == 3
    assert "2^3" in str(err.value)


def test_spec_validation_rejects_bad_declarations():
    circuit = build_secand2()
    with pytest.raises(ValueError, match="not covered"):
        GadgetSpec(
            name="missing", circuit=circuit, secrets=(("x", ("x0", "x1")),)
        ).validate()
    with pytest.raises(ValueError, match="not in circuit"):
        GadgetSpec(
            name="extra",
            circuit=circuit,
            secrets=(("x", ("x0", "x1")), ("y", ("y0", "y1"))),
            randoms=("nope",),
        ).validate()
    with pytest.raises(ValueError, match="twice"):
        GadgetSpec(
            name="dup",
            circuit=circuit,
            secrets=(("x", ("x0", "x1")), ("y", ("y0", "y1"))),
            randoms=("x0",),
        ).validate()


def test_class_sizes_exact():
    spec = preset_spec("secand2_pd")
    tab = tabulate_probes(spec)
    assert tab.n_assignments == 16
    assert tab.class_size == 4
    # per wire, counts over all traces sum to the class size per secret
    for dist in tab.probes.values():
        total = sum(dist.counts.values())
        assert np.array_equal(total, np.full(4, 4, dtype=np.int64))


# ----------------------------------------------------------------------
# counterexamples: witness resimulation and VCD export
# ----------------------------------------------------------------------
def test_witness_waveforms_reproduces_trace():
    spec = preset_spec("secand2_bad_order")
    probe = verify(spec).leaks[0]
    waveforms = witness_waveforms(spec, probe.witness)
    assert tuple(waveforms[probe.wire].changes) == probe.trace


def test_counterexample_vcd_contains_leaking_wire():
    spec = preset_spec("secand2_pd_y1_early")
    probe = verify(spec).leaks[0]
    vcd = counterexample_vcd(spec, probe)
    assert "$timescale" in vcd
    assert probe.wire_name in vcd


# ----------------------------------------------------------------------
# fault path: faulted circuits through the verifier, exact sweep
# ----------------------------------------------------------------------
def test_faulted_circuit_flips_verdict():
    """Stretching the y1 DelayUnit shorter turns the exactly-secure PD
    gadget leaky — the verifier sees the fault transform's effect."""
    spec = preset_spec("secand2_pd")
    assert verify(spec).secure
    # collapse the y1 delay line: 1000 -> 300 ps, before the x shares' 500
    broken = spec.with_circuit(
        shift_gate_delay(spec.circuit, "secand2pd_dl_y1", -700.0),
        name="secand2_pd shifted",
    )
    assert not verify(broken).secure


def test_verify_fault_sweep_quick():
    sweep = verify_fault_sweep(
        spec=pd_bank_spec(n_instances=2, n_luts=1), sigmas=(0, 300)
    )
    assert sweep.clean_at_zero
    assert sweep.monotone_counts
    assert [p.sigma_ps for p in sweep.points] == [0, 300]
    d = sweep.to_json_dict()
    assert d["schema"] == "verify_fault_sweep/v1"
    assert json.loads(json.dumps(d)) == d


def test_eval_fault_sweep_verify_metric():
    from repro.eval.fault_sweep import run

    result = run(sigmas=(0,), metric="verify", n_instances=2, n_luts=1)
    assert result.clean_at_zero
    assert "Exact fault sweep" in result.render()
    with pytest.raises(ValueError, match="metric"):
        run(metric="nope")


# ----------------------------------------------------------------------
# report plumbing and CLI
# ----------------------------------------------------------------------
def test_result_json_roundtrip():
    result = verify(preset_spec("secand2_bad_order"))
    d = result.to_json_dict()
    assert d["schema"] == "verify_report/v1"
    assert d["secure"] is False
    assert d["n_leaking"] == len(d["leaks"]) == 2
    assert json.loads(json.dumps(d)) == d


def test_render_mentions_verdict():
    secure = verify(preset_spec("secand2_pd")).render()
    leaky = verify(preset_spec("secand2_bad_order")).render()
    assert "SECURE" in secure
    assert "LEAKS" in leaky and "witness" in leaky


def test_cli_smoke(tmp_path, capsys):
    report = tmp_path / "report.json"
    vcd = tmp_path / "leak.vcd"
    rc = cli_main(
        [
            "--preset",
            "secand2_pd",
            "--preset",
            "secand2_pd_y1_early",
            "--json",
            str(report),
            "--vcd",
            str(vcd),
        ]
    )
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["schema"] == "verify_cli/v2"
    assert data["ok"] is True
    assert data["n_presets"] == 2
    assert data["n_matched"] == 2
    assert data["elapsed_s"] >= 0
    assert [r["matched"] for r in data["results"]] == [True, True]
    assert "$timescale" in vcd.read_text()
    out = capsys.readouterr().out
    assert "2/2 verdicts match" in out


def test_cli_list_and_errors(capsys):
    assert cli_main(["--list-presets"]) == 0
    assert "secand2_pd" in capsys.readouterr().out
    assert cli_main(["--preset", "nope"]) == 2
    assert cli_main([]) == 2


def test_main_module_dispatches_verify(capsys):
    from repro.__main__ import main as repro_main

    assert repro_main(["verify", "--preset", "secand2_pd"]) == 0
    assert "SECURE" in capsys.readouterr().out


def test_default_budget_is_twenty_bits():
    assert MAX_INPUT_BITS == 20
