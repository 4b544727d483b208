"""Certification pipeline + compile CLI.

End-to-end certificates for the DES target (criterion c), the
arrival-class site argument, whole-netlist exact mode on a
single-gadget compile, JSON artifacts, and CLI exit codes.  Each
arrival class is proved once per process, and a solved PD compile
reuses the solver's trial netlist instead of emitting it again.
"""

import json

import pytest

import repro.compile as compile_pkg
from repro.compile import (
    CostReport,
    SiteClass,
    certify_netlist,
    compile_spec,
    des_sbox_spec,
    present_sbox_spec,
    site_classes,
    site_spec_for_arrivals,
)
from repro.compile import certify as certify_mod
from repro.compile import emit as emit_mod
from repro.compile.cli import main as compile_main
from repro.compile.schedule import pd_schedule
from repro.verify.report import verify


@pytest.fixture(scope="module")
def des_cert():
    return compile_spec(des_sbox_spec(0), style="pd", refresh="full").certify()


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------
def test_des_pd_full_refresh_certifies(des_cert):
    assert des_cert.functional["ok"]
    assert des_cert.static["ok"]
    assert des_cert.exact_ok
    assert des_cert.ok
    assert des_cert.counterexample is None
    # every arrival class was actually verified
    assert des_cert.sites and all(s.secure for s in des_cert.sites)


def test_des_pd_selective_refresh_certifies():
    result = compile_spec(
        des_sbox_spec(0), style="pd", refresh="selective",
        refresh_n_per_input=400,
    )
    cert = result.certify()
    assert cert.ok
    assert result.netlist.fresh_bits < 14  # strictly fewer fresh bits


def test_des_ff_certifies_via_gadget_and_layering():
    cert = compile_spec(des_sbox_spec(0), style="ff").certify()
    assert cert.ok
    assert cert.gadget_ff and cert.gadget_ff["secure"]
    assert cert.layering["ok"]


def test_site_classes_cover_all_gadgets():
    net = compile_spec(des_sbox_spec(0), style="pd").netlist
    classes = site_classes(net)
    assert sum(len(s.tags) for s in classes) == net.n_secand2 == 30
    # grouping compresses: far fewer verifier runs than gadgets
    assert len(classes) < 30


def test_site_spec_ordering_decides_security():
    # y1 strictly last -> exactly secure
    ordered = site_spec_for_arrivals((0, 0, 0, 400), name="ok_site")
    assert verify(ordered).secure
    # y1 early -> the Eq. 2 recombination leaks
    leaky = site_spec_for_arrivals((400, 400, 400, 0), name="bad_site")
    assert not verify(leaky).secure


def test_whole_mode_passes_single_gadget_compile():
    # one product, one secand2: the entire netlist fits the exact
    # verifier and is secure even without the compositional argument
    cert = compile_spec([0, 0, 0, 1], style="pd").certify(exact="whole")
    assert cert.whole and cert.whole["secure"]
    assert cert.ok


def test_optional_checks_recorded_in_certificate():
    cert = compile_spec([0, 0, 0, 1], style="pd").certify(
        uniformity_n=300, tvla_traces=400
    )
    assert cert.uniformity["checked"] and cert.uniformity["ok"]
    assert cert.tvla["checked"] and not cert.tvla["detected"]


def test_certificate_json_schema(des_cert):
    d = des_cert.to_json_dict()
    assert d["schema"] == "compile_certificate/v1"
    for key in ("name", "style", "ok", "functional", "static", "cost"):
        assert key in d
    json.dumps(d)  # fully serialisable


def test_solver_sizes_the_requested_secand2_style():
    # the gates-style core is slower than the LUT one: sizing on the LUT
    # netlist's margins chose n_luts=1, which leaves 188 ps < 200 ps
    result = compile_spec(
        present_sbox_spec(), secand2_style="gates", margin_ps=200
    )
    cert = result.certify()
    assert cert.static["min_y1_margin_ps"] >= 200
    assert cert.ok


# ----------------------------------------------------------------------
# one proof per arrival class, one emit per trial size
# ----------------------------------------------------------------------
@pytest.fixture
def verify_calls(monkeypatch):
    """Names of the specs the certifier proves during the test, starting
    from an empty proof memo."""
    certify_mod._PROOFS.clear()
    calls = []

    def counting(spec, *args, **kwargs):
        calls.append(spec.name)
        return verify(spec, *args, **kwargs)

    monkeypatch.setattr(certify_mod, "verify", counting)
    return calls


def _certify_two_sboxes():
    return [
        certify_netlist(
            compile_spec(des_sbox_spec(i), style="pd", refresh="full").netlist
        )
        for i in (0, 1)
    ]


def test_each_arrival_class_is_proved_once(verify_calls):
    certs = _certify_two_sboxes()
    classes = [{s.arrivals for s in cert.sites} for cert in certs]
    assert classes[0] & classes[1]  # the S-boxes share arrival classes
    assert len(verify_calls) == len(classes[0] | classes[1])
    assert all(cert.ok for cert in certs)


def test_reused_proof_carries_its_own_name(verify_calls):
    first, second = _certify_two_sboxes()
    proved = {s.arrivals: s.result for s in first.sites}
    assert all(r.elapsed_s > 0.0 for r in proved.values())
    reused = [s for s in second.sites if s.arrivals in proved]
    assert reused
    for site in reused:
        original = proved[site.arrivals]
        assert site.result.gadget == f"{second.name}_pd_site_{site.tags[0]}"
        assert site.result.elapsed_s == 0.0
        assert site.result.leaks is not original.leaks
        assert site.result.n_probes == original.n_probes
        assert site.result.secure == original.secure


def test_leaking_class_sets_counterexample_on_reuse(monkeypatch, verify_calls):
    # y1 settles first: the Eq. 2 recombination leaks
    monkeypatch.setattr(
        certify_mod,
        "site_classes",
        lambda netlist: [SiteClass(arrivals=(400, 400, 400, 0), tags=("g",))],
    )
    netlist = compile_spec([0, 0, 0, 1], style="pd").netlist

    def check_counterexample(cert):
        assert not cert.exact_ok and not cert.ok
        assert cert.counterexample == cert.sites[0].result.leaks[0]
        spec = cert.counterexample_spec
        assert spec.name == cert.sites[0].result.gadget
        assert verify(spec).leaks[0] == cert.counterexample

    first = certify_netlist(netlist)
    check_counterexample(first)
    leaks = list(first.sites[0].result.leaks)
    first.sites[0].result.leaks.clear()  # a caller's edit stays its own
    again = certify_netlist(netlist)
    check_counterexample(again)
    assert len(verify_calls) == 1
    assert again.sites[0].result.elapsed_s == 0.0
    assert again.sites[0].result.leaks == leaks


def test_ff_preset_is_proved_once(verify_calls):
    certs = [
        compile_spec(des_sbox_spec(i), style="ff", refresh="full").certify()
        for i in (0, 1)
    ]
    assert verify_calls == ["secand2_ff"]
    assert all(cert.ok for cert in certs)
    assert certs[1].gadget_ff["elapsed_s"] == 0.0


@pytest.mark.parametrize(
    "spec", [des_sbox_spec(0), present_sbox_spec()], ids=["des0", "present"]
)
def test_solved_netlist_equals_fresh_emit(spec):
    result = compile_spec(spec, style="pd")
    fresh = emit_mod.emit_pd(
        result.plan,
        result.netlist.refresh,
        pd_schedule(result.plan, result.n_luts, result.margin_ps),
    )
    got, want = result.circuit, fresh.circuit
    assert got.gates == want.gates  # cells, wiring and delays
    assert [got.wire_name(w) for w in range(got.n_wires)] == [
        want.wire_name(w) for w in range(want.n_wires)
    ]
    assert got.inputs == want.inputs and got.outputs == want.outputs
    assert got.annotations == want.annotations
    assert result.netlist.schedule == fresh.schedule
    assert CostReport.from_netlist(result.netlist) == CostReport.from_netlist(
        fresh
    )


def test_solved_pd_compile_emits_twice(monkeypatch):
    sizes = []
    emit_pd = emit_mod.emit_pd

    def counting(plan, choice, schedule, **kwargs):
        sizes.append(schedule.n_luts)
        return emit_pd(plan, choice, schedule, **kwargs)

    monkeypatch.setattr(emit_mod, "emit_pd", counting)
    monkeypatch.setattr(compile_pkg, "emit_pd", counting)
    result = compile_spec(des_sbox_spec(0), style="pd")
    assert result.n_luts == 1
    assert sizes == [1, 2]  # the two trial sizes, no third emit


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_smoke_json_report(tmp_path, capsys):
    out = tmp_path / "compile.json"
    status = compile_main(["--des-sbox", "0", "--json", str(out)])
    capsys.readouterr()
    assert status == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "compile_cli/v1"
    assert report["ok"] is True
    assert report["n_targets"] == report["n_certified"] == 1
    assert report["results"][0]["certificate"]["ok"] is True


def test_cli_rejection_exit_code(tmp_path, capsys):
    status = compile_main(
        ["--des-sbox", "0", "--n-luts", "1", "--margin", "400",
         "--json", str(tmp_path / "reject.json")]
    )
    capsys.readouterr()
    assert status == 1
    report = json.loads((tmp_path / "reject.json").read_text())
    assert report["ok"] is False
    assert report["results"][0]["error"] == "schedule"


def test_cli_usage_error_exit_code(capsys):
    # no target selected -> usage error
    assert compile_main([]) == 2
    # argparse rejects bad choices with its conventional exit code
    with pytest.raises(SystemExit) as exc_info:
        compile_main(["--style", "nonsense"])
    assert exc_info.value.code == 2
    capsys.readouterr()


def test_main_module_dispatches_compile(tmp_path, capsys):
    from repro.__main__ import main as repro_main

    status = repro_main(
        ["compile", "--present-sbox", "--json", str(tmp_path / "p.json")]
    )
    capsys.readouterr()
    assert status == 0
    assert json.loads((tmp_path / "p.json").read_text())["ok"] is True
