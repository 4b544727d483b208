"""Tests for the extension features: masked decrypt/3DES, selective
refresh (paper future work), the 6-cycle FF ablation, Verilog export."""

import numpy as np
import pytest

from repro.des.bits import bitarray_to_ints, int_to_bitarray
from repro.des.masked_core import MaskedDES, MaskedSboxModel
from repro.des.reference import des_encrypt_bits, tdes_encrypt
from repro.des.selective_refresh import (
    greedy_minimal_refresh,
    refresh_bits_used,
    uniformity_defect,
)
from repro.leakage.prng import RandomnessSource
from repro.netlist.verilog import sanitize_identifier, to_verilog


def blocks(n, seed=0):
    rng = np.random.default_rng(seed)
    pt = int_to_bitarray(rng.integers(0, 2**63, n, dtype=np.uint64), 64)
    ky = int_to_bitarray(rng.integers(0, 2**63, n, dtype=np.uint64), 64)
    return pt, ky


# ----------------------------------------------------------------------
# masked decrypt + TDES
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", ["ff", "pd"])
def test_masked_decrypt_inverts_encrypt(variant):
    pt, ky = blocks(64)
    core = MaskedDES(variant)
    prng = RandomnessSource(1)
    ct = core.encrypt(pt, ky, prng)
    back = core.decrypt(ct, ky, prng)
    assert np.array_equal(back, pt)


def test_masked_tdes_matches_reference():
    rng = np.random.default_rng(2)
    n = 16
    pt_ints = rng.integers(0, 2**63, n, dtype=np.uint64)
    k1, k2, k3 = 0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x133457799BBCDFF1
    pt = int_to_bitarray(pt_ints, 64)
    core = MaskedDES("ff")
    ct = core.tdes_encrypt(
        pt,
        int_to_bitarray(np.uint64(k1), 64, n),
        int_to_bitarray(np.uint64(k2), 64, n),
        int_to_bitarray(np.uint64(k3), 64, n),
        prng=RandomnessSource(3),
    )
    got = bitarray_to_ints(ct)
    for i in range(n):
        assert int(got[i]) == tdes_encrypt(int(pt_ints[i]), k1, k2, k3)


def test_masked_tdes_roundtrip_two_key():
    pt, _ = blocks(16, seed=3)
    rng = np.random.default_rng(4)
    k1 = int_to_bitarray(rng.integers(0, 2**63, 16, dtype=np.uint64), 64)
    k2 = int_to_bitarray(rng.integers(0, 2**63, 16, dtype=np.uint64), 64)
    core = MaskedDES("pd")
    ct = core.tdes_encrypt(pt, k1, k2, prng=RandomnessSource(5))
    back = core.tdes_decrypt(ct, k1, k2, prng=RandomnessSource(6))
    assert np.array_equal(back, pt)


# ----------------------------------------------------------------------
# selective refresh (future work of Sec. IV-A)
# ----------------------------------------------------------------------
def test_refresh_mask_preserves_functionality():
    rng = np.random.default_rng(7)
    model = MaskedSboxModel(2)
    x0 = rng.integers(0, 2, (6, 500)).astype(bool)
    x1 = rng.integers(0, 2, (6, 500)).astype(bool)
    r = rng.integers(0, 2, (14, 500)).astype(bool)
    full = model(x0, x1, r)
    none = model(x0, x1, r, refresh_mask=[False] * 14)
    assert np.array_equal(full[0] ^ full[1], none[0] ^ none[1])


def test_no_refresh_breaks_uniformity():
    """Without any refresh the output-share distribution depends on the
    unshared input — the very defect the refresh layer fixes."""
    defect_none = uniformity_defect(0, [False] * 14, n_per_input=1500, seed=1)
    defect_full = uniformity_defect(0, [True] * 14, n_per_input=1500, seed=1)
    assert defect_none > 5 * defect_full
    assert defect_none > 0.1


def test_greedy_search_finds_smaller_plan():
    plan = greedy_minimal_refresh(0, n_per_input=1500, seed=2)
    assert plan.bits_used < 14
    assert plan.bits_used >= 1
    # the found plan keeps the defect near the full-refresh floor
    assert plan.defect < 3 * plan.baseline_defect + 1e-3


def test_refresh_bits_used_sums():
    plans = [greedy_minimal_refresh(s, n_per_input=1000, seed=3) for s in (0, 1)]
    assert refresh_bits_used(plans) == plans[0].bits_used + plans[1].bits_used


# ----------------------------------------------------------------------
# 6-cycle FF engine (output register removed)
# ----------------------------------------------------------------------
def test_six_cycle_ff_engine_functional():
    from repro.des.engines import MaskedDESNetlistEngine

    eng = MaskedDESNetlistEngine("ff", sbox_output_register=False)
    assert eng.cycles_per_round == 6
    pt, ky = blocks(24, seed=8)
    ct, power = eng.run_batch(pt, ky, RandomnessSource(9))
    assert np.array_equal(ct, des_encrypt_bits(pt, ky))
    assert power.sum() > 0
    # fewer FFs than the 7-cycle version (64 output-register FFs gone)
    full = MaskedDESNetlistEngine("ff")
    n_ff = lambda e: sum(1 for g in e.circuit.gates if g.is_ff)
    assert n_ff(full) - n_ff(eng) == 64


# ----------------------------------------------------------------------
# Verilog export
# ----------------------------------------------------------------------
def test_sanitize_identifier():
    assert sanitize_identifier("a.b-c") == "a_b_c"
    assert sanitize_identifier("0foo") == "n_0foo"
    assert sanitize_identifier("ok_name") == "ok_name"


def test_verilog_combinational_gadget():
    from repro.core.gadgets import build_secand2

    v = to_verilog(build_secand2())
    assert "module secAND2" in v
    assert "endmodule" in v
    assert v.count("(x0 & y0) ^ (x0 | ~y1)") == 1
    assert "always" not in v  # purely combinational


def test_verilog_ff_gadget_has_reset_and_enable():
    from repro.core.gadgets import build_secand2_ff

    v = to_verilog(build_secand2_ff(enable=True))
    assert "input clk;" in v
    assert "rst_gadget" in v
    assert "always @(posedge clk)" in v
    assert "if (rst_gadget)" in v
    assert "else if (en)" in v


def test_verilog_delay_lines_expanded():
    from repro.core.gadgets import build_secand2_pd

    v = to_verilog(build_secand2_pd(n_luts=3))
    # x0: 1 unit x 3 LUTs, x1: same, y1: 2 units x 3 LUTs => 12 LUTs
    assert v.count("// delay LUT") == 12
    assert '(* keep = "true" *)' in v


def test_verilog_full_engine_exports():
    from repro.des.engines import MaskedDESNetlistEngine

    eng = MaskedDESNetlistEngine("ff")
    v = to_verilog(eng.circuit, module_name="masked_des_ff")
    assert "module masked_des_ff" in v
    assert v.count("always @(posedge clk)") == sum(
        1 for g in eng.circuit.gates if g.is_ff
    )


def test_verilog_trichina_lut():
    from repro.core.baselines import build_trichina

    v = to_verilog(build_trichina(style="lut"))
    assert "(x0 & y0) ^ (x0 & y1) ^ (x1 & y1) ^ (x1 & y0)" in v


# ----------------------------------------------------------------------
# VCD export + CLI
# ----------------------------------------------------------------------
def test_vcd_export_glitch_waveform():
    from repro.core.gadgets import build_secand2
    from repro.sim.power import TransientRecorder
    from repro.sim.vcd import to_vcd, trace_waveforms
    from repro.sim.vectorsim import VectorSimulator

    c = build_secand2()
    sim = VectorSimulator(c, 1)
    sim.evaluate_combinational({c.wire(n): False for n in ("x0", "x1", "y0", "y1")})
    rec = TransientRecorder(1)
    sim.settle([(0, c.wire("y0"), True), (1000, c.wire("x0"), True)], recorder=rec)
    vcd = to_vcd(c, trace_waveforms(rec.events, sim.values[:, 0]))
    assert "$timescale 1ps $end" in vcd
    assert "$var wire 1" in vcd
    assert "#0" in vcd and "#1000" in vcd
    assert "$enddefinitions" in vcd


def test_vcd_selected_wires():
    from repro.core.gadgets import build_secand2
    from repro.sim.vcd import to_vcd, trace_waveforms

    c = build_secand2()
    vcd = to_vcd(c, trace_waveforms([], [False] * c.n_wires), wires=["x0", "y1"])
    assert vcd.count("$var wire 1") == 2


def test_cli_list(capsys):
    from repro.__main__ import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "fig17" in out


def test_cli_unknown_experiment(capsys):
    from repro.__main__ import main

    assert main(["nope"]) == 2


def test_cli_runs_table3(capsys):
    from repro.__main__ import main

    assert main(["table3", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "secAND2-FF" in out
