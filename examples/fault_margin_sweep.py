#!/usr/bin/env python3
"""Fault injection: where does the secAND2-PD protection collapse?

1. sweep per-gate delay variation (common random numbers) over a bank
   of secAND2-PD gadgets and watch the ordering margins erode linearly
   until the static checker and TVLA agree the design broke — the
   report names the exact instance and constraint that collapsed first;
2. break one gadget surgically with a targeted DelayUnit shift and show
   the checker pinpoints it;
3. run a checkpointed campaign, kill it mid-way, and resume it to the
   bitwise-identical result.

Run:  python examples/fault_margin_sweep.py
"""

import os
import tempfile

import numpy as np

from repro.faults import (
    build_pd_bank,
    margin_erosion_sweep,
    PDBankSource,
    shift_gate_delay,
)
from repro.leakage import CampaignConfig, run_campaign, run_campaign_supervised
from repro.leakage.acquisition import CampaignBatchError
from repro.netlist.safety import check_secand2_ordering, min_ordering_margin


def main() -> None:
    # -- 1. margin-erosion sweep --------------------------------------
    print("=" * 72)
    print("1. delay-variation sweep: static margins vs. TVLA")
    print("=" * 72)
    result = margin_erosion_sweep(
        sigmas=(0, 150, 300, 450, 600),
        n_instances=8,
        fault_seed=1,
        n_traces=4000,
        batch_size=2000,
        seed=3,
    )
    print(result.render())

    # -- 2. a targeted fault ------------------------------------------
    print()
    print("=" * 72)
    print("2. targeted fault: shrink one DelayUnit past the margin")
    print("=" * 72)
    bank = build_pd_bank(n_instances=4)
    print(f"nominal: {min_ordering_margin(bank)}")
    broken = shift_gate_delay(bank, "i2_dl_y1", -600.0)
    for v in check_secand2_ordering(broken):
        print(f"violated: {v}")

    # -- 3. interrupted + resumed campaign ----------------------------
    print()
    print("=" * 72)
    print("3. checkpoint/resume: interrupted == uninterrupted, bitwise")
    print("=" * 72)
    source = PDBankSource(bank)
    cfg = CampaignConfig(
        n_traces=2000, batch_size=500, noise_sigma=1.0, seed=5,
        label="pd-bank supervised",
    )
    reference = run_campaign(source, cfg)

    class DiesAtBatch3(PDBankSource):
        calls = 0

        def acquire(self, fixed_mask, rng):
            if DiesAtBatch3.calls == 3:
                raise RuntimeError("simulated crash")
            DiesAtBatch3.calls += 1
            return super().acquire(fixed_mask, rng)

    ckpt = os.path.join(tempfile.mkdtemp(), "campaign.npz")
    crashy = DiesAtBatch3(bank)
    try:
        # quarantine off: a batch whose source raises ends the run at
        # once, with the completed prefix checkpointed
        run_campaign_supervised(crashy, cfg, ckpt, quarantine_batches=False)
    except CampaignBatchError as exc:
        print(f"interrupted: {exc}")
    resumed = run_campaign_supervised(source, cfg, ckpt)
    identical = all(
        np.array_equal(a, b)
        for a, b in ((reference.t1, resumed.t1), (reference.t2, resumed.t2),
                     (reference.t3, resumed.t3))
    )
    print(f"resumed result bitwise-identical to uninterrupted run: {identical}")
    print(resumed.summary())


if __name__ == "__main__":
    main()
