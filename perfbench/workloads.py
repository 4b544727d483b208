"""The benchmark's four workloads: set-up, one steady-state run, output checks.

Each workload is a closed loop: one campaign (or one compile suite) per
run, and the next run starts only after the previous one returned.  Set-up
builds the device and pays one warm-up operation, so every schedule
compile a fresh process needs lands in set-up, not in the first run.
The random inputs derive from the seed; the same seed gives the same inputs and
the same simulated statistics.

Checks run after the timed region.  A failure is a list of reasons; the
caller counts the failed operations (a batch, a compile target or a run).
"""

from __future__ import annotations

import os
import signal
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

#: Leak threshold of the t-test verdicts.
THRESHOLD = 4.5

#: Constant added to every trace in the ``t_shift_err`` leg.
SHIFT = 1000.0

#: TVLA fixed vector of the DES workloads (the classic DES test
#: plaintext and key).  It stays fixed across seeds: the leak strength
#: depends on it, and the pinned verdicts must hold for every seed.
DES_FIXED_PLAINTEXT = 0x0123456789ABCDEF
DES_KEY = 0x133457799BBCDFF1


@dataclass
class Run:
    """Outcome of one steady-state run."""

    wall_s: float
    items: int
    ops: int
    result: Any = None
    outputs: List[Any] = field(default_factory=list)


@dataclass(frozen=True)
class TExpect:
    """Pinned t-test outcome of one order: verdict (or ``None`` when the
    verdict sits at the detection threshold for this trace count) and a
    window max|t| must fall in, loose enough for a sounder accumulator."""

    leaks: Optional[bool]
    lo: float
    hi: float


def _check_t(result, expect, label) -> List[str]:
    failures = []
    for order, exp in enumerate(expect, start=1):
        m = float(result.max_abs(order))
        if exp.leaks is not None and (m > THRESHOLD) != exp.leaks:
            failures.append(
                f"{label}: order-{order} verdict leaks={m > THRESHOLD} "
                f"(max|t|={m:.3f}), expected leaks={exp.leaks}"
            )
        if not exp.lo <= m <= exp.hi:
            failures.append(
                f"{label}: order-{order} max|t|={m:.3f} outside pinned "
                f"[{exp.lo}, {exp.hi}]"
            )
    return failures


class _Shifted:
    """Source wrapper that adds a constant to every trace it returns."""

    def __init__(self, inner, offset: float):
        self._inner = inner
        self._offset = offset
        self.n_samples = inner.n_samples

    @property
    def pack_traces(self):
        return self._inner.pack_traces

    @pack_traces.setter
    def pack_traces(self, value):
        self._inner.pack_traces = value

    def warmup(self):
        return self._inner.warmup()

    def acquire(self, fixed_mask, rng):
        traces = self._inner.acquire(fixed_mask, rng)
        return traces + traces.dtype.type(self._offset)


def t_shift_err(base, shifted) -> float:
    """max over orders 1-3 and samples of |t_k(traces + c) - t_k(traces)|."""
    return max(
        float(np.max(np.abs(getattr(shifted, t) - getattr(base, t))))
        for t in ("t1", "t2", "t3")
    )


class Workload:
    name = ""
    ops_per_run = 1
    #: worker processes a run forks (0 = the run stays in one process)
    pool_workers = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Run:
        raise NotImplementedError

    def check(self, run: Run) -> "tuple[int, List[str]]":
        """``(failed operations, reasons)`` of a finished run."""
        raise NotImplementedError

    def ge_total(self, run: Run) -> float:
        return 0.0


class _DESTvla(Workload):
    """Masked-DES TVLA campaign: serial ``run_campaign``, two lane-aligned
    batches per run."""

    variant = ""
    coupling = 0.0
    n_traces = 512
    batch_size = 256
    ops_per_run = n_traces // batch_size
    expect: tuple = ()

    def setup(self) -> None:
        from repro.des.engines import DESTraceSource, MaskedDESNetlistEngine
        from repro.leakage.acquisition import CampaignConfig

        self.engine = MaskedDESNetlistEngine(self.variant)
        self.source = DESTraceSource(
            self.engine, DES_FIXED_PLAINTEXT, DES_KEY, prng_enabled=True,
            coupling_coefficient=self.coupling,
        )
        self.config = CampaignConfig(
            n_traces=self.n_traces, batch_size=self.batch_size,
            noise_sigma=1.0, seed=self.seed, n_workers=1,
        )
        self.captured = []
        engine_cls = type(self.engine)

        def run_batch(pt_bits, key_bits, *args, **kwargs):
            # class lookup at call time, so installed wrappers apply
            ct, power = engine_cls.run_batch(self.engine, pt_bits, key_bits, *args, **kwargs)
            self.captured.append((pt_bits, key_bits, ct))
            return ct, power

        self.engine.run_batch = run_batch
        # warm-up: one lane-aligned batch compiles the schedules the
        # packed campaign replays
        self.source.pack_traces = self.config.pack_traces
        mask = np.random.default_rng([self.seed, 1]).integers(0, 2, 64).astype(bool)
        self.source.acquire(mask, np.random.default_rng([self.seed, 2]))
        self.captured.clear()

    def _campaign(self, source):
        from repro.leakage.acquisition import run_campaign

        return run_campaign(source, self.config)

    def run(self) -> Run:
        self.captured.clear()
        t0 = time.perf_counter()
        result = self._campaign(self.source)
        wall = time.perf_counter() - t0
        outputs, self.captured = self.captured, []
        return Run(wall, self.n_traces, self.ops_per_run, result, outputs)

    def check(self, run: Run):
        from repro.des.reference import des_encrypt_bits

        reasons = [
            f"{self.name}: batch {i} ciphertext != des_encrypt_bits"
            for i, (pt_bits, key_bits, ct) in enumerate(run.outputs)
            if not np.array_equal(ct, des_encrypt_bits(pt_bits, key_bits))
        ]
        bad_batches = len(reasons)
        if len(run.outputs) != run.ops:
            reasons.append(f"{self.name}: {len(run.outputs)} batches, expected {run.ops}")
        reasons += _check_t(run.result, self.expect, self.name)
        # a verdict belongs to the whole run: it fails every batch
        return (run.ops if len(reasons) > bad_batches else bad_batches), reasons

    def shift_leg(self, base) -> float:
        shifted = self._campaign(_Shifted(self.source, SHIFT))
        self.captured.clear()
        return t_shift_err(base, shifted)


class DesFFTvla(_DESTvla):
    """Paper Fig. 14: FF engine, PRNG on, sigma 1.  Bound by replay."""

    name = "des_ff_tvla"
    variant = "ff"
    # order 2 is at its detection threshold at 512 traces (max|t2| from
    # 3.4 to 5.7 over seeds 0-4), so only its window is pinned.  Orders 1
    # and 3 do not leak, but the max of |t| over 452 samples of a
    # no-leak campaign still crosses 4.5 for a few seeds (max|t1| = 4.55
    # at seed 318); a window of 6 passes those and still fails a real
    # first-order leak (the PRNG off gives max|t1| = 54).
    expect = (
        TExpect(None, 0.0, 6.0),
        TExpect(None, 0.0, 12.0),
        TExpect(None, 0.0, 6.0),
    )


class DesPDCouplingTvla(_DESTvla):
    """Sec. VII-C: PD engine with delay-line coupling 5.0 (boolean engine,
    per-event ``record_wire`` path)."""

    name = "des_pd_coupling_tvla"
    variant = "pd"
    coupling = 5.0
    # orders 1 (max|t1| up to 4.6 for some fixed vectors) and 3 (up to
    # 3.9) sit at the detection threshold at 512 traces; only their
    # windows are pinned
    expect = (
        TExpect(None, 0.0, 12.0),
        TExpect(True, THRESHOLD, 15.0),
        TExpect(None, 0.0, 12.0),
    )

    def setup(self) -> None:
        from repro.sim.bitpack import AutoPackFallbackWarning

        # the coupling recorder has no packed path; "auto" says so once
        warnings.simplefilter("ignore", AutoPackFallbackWarning)
        super().setup()


class _DefaultSigterm:
    """Pool-worker hook for ``run_campaign_supervised(chaos=...)``: each
    worker restores the default SIGTERM action.

    Forked workers inherit the supervisor's SIGTERM handler, so
    ``Pool.terminate()`` cannot kill a worker blocked on the task-queue
    lock and pool teardown hangs (README.md, "Known defect").
    """

    @staticmethod
    def worker_setup() -> None:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


class SeqTvlaPaperscale(Workload):
    """secAND2 ``SequenceSource`` (8 instances, secure order y0 x0 x1 y1) at
    paper-scale trace counts under ``run_campaign_supervised``."""

    name = "seq_tvla_paperscale"
    order = ("y0", "x0", "x1", "y1")
    n_traces = 2_000_000

    def setup(self) -> None:
        from repro.core.sequences import SequenceSource, sequence_is_safe
        from repro.leakage.acquisition import CampaignConfig

        self.source = SequenceSource(self.order, n_instances=8)
        n_workers = min(2, os.cpu_count() or 1)
        self.pool_workers = n_workers if n_workers > 1 else 0
        self.config = CampaignConfig(
            n_traces=self.n_traces, noise_sigma=1.0, seed=self.seed,
            n_workers=n_workers,
        )
        self.checkpoint = os.path.join(self.workdir, f"seq-{os.getpid()}.npz")
        safe = sequence_is_safe(self.order)
        self.expect = (
            TExpect(not safe, 0.0, THRESHOLD),
            TExpect(True, 120.0, 170.0),
            TExpect(True, 120.0, 170.0),
        )
        # warm-up: a two-batch supervised campaign (schedule compile,
        # first pool start-up)
        warm = CampaignConfig(
            n_traces=2 * self.config.batch_size, noise_sigma=1.0,
            seed=self.seed, n_workers=n_workers,
        )
        self._campaign(self.source, warm)

    def _campaign(self, source, config):
        from repro.leakage.supervisor import run_campaign_supervised

        return run_campaign_supervised(
            source, config, self.checkpoint, chaos=_DefaultSigterm()
        )

    def run(self) -> Run:
        t0 = time.perf_counter()
        result = self._campaign(self.source, self.config)
        wall = time.perf_counter() - t0
        return Run(wall, self.n_traces, 1, result)

    def check(self, run: Run):
        reasons = _check_t(run.result, self.expect, self.name)
        stats = run.result.stats
        if stats.skipped_traces or stats.quarantined_batches:
            reasons.append(
                f"{self.name}: supervisor skipped {stats.skipped_traces} traces "
                f"(quarantined batches {stats.quarantined_batches})"
            )
        return (1 if reasons else 0), reasons

    def shift_leg(self, base) -> float:
        return t_shift_err(base, self._campaign(_Shifted(self.source, SHIFT), self.config))


#: Paper targets -> pinned (area GE, FFs, LUTs, fresh random bits) of the
#: PD-style compile.
PAPER_COSTS = {
    "des0": (1543.42, 52, 188, 3),
    "des1": (1472.09, 52, 174, 3),
    "des2": (1480.09, 52, 175, 2),
    "des3": (1492.76, 52, 178, 1),
    "des4": (1515.42, 52, 182, 2),
    "des5": (1498.75, 52, 178, 3),
    "des6": (1458.75, 52, 170, 2),
    "des7": (1499.42, 52, 179, 3),
    "present": (398.3, 8, 49, 1),
    "aes": (9692.98, 304, 1277, 27),
}


class CompilePaper(Workload):
    """``compile_spec(style="pd")`` + ``.certify()`` over the 10 paper targets."""

    name = "compile_paper"
    ops_per_run = 10

    @staticmethod
    def _specs():
        from repro.compile import aes_sbox_spec, des_sbox_spec, present_sbox_spec

        specs = [(f"des{i}", des_sbox_spec(i)) for i in range(8)]
        return specs + [("present", present_sbox_spec()), ("aes", aes_sbox_spec())]

    def _compile(self, spec):
        import repro.compile as compile_pkg

        # module attribute lookup at call time, so installed wrappers apply
        result = compile_pkg.compile_spec(spec, style="pd")
        cert = result.certify(seed=self.seed)
        c = cert.cost
        return cert.ok, (round(c.area_ge, 3), c.n_ff, c.n_lut, c.fresh_bits)

    def setup(self) -> None:
        self.specs = self._specs()
        # warm-up: one small target through the whole pipeline
        self._compile(self.specs[0][1])

    def run(self) -> Run:
        t0 = time.perf_counter()
        outputs = [(name, *self._compile(spec)) for name, spec in self.specs]
        wall = time.perf_counter() - t0
        return Run(wall, len(outputs), len(outputs), None, outputs)

    def check(self, run: Run):
        reasons = []
        for name, ok, cost in run.outputs:
            if not ok:
                reasons.append(f"{self.name}: {name} not CERTIFIED")
            elif cost != PAPER_COSTS.get(name):
                reasons.append(
                    f"{self.name}: {name} cost {cost} != pinned {PAPER_COSTS.get(name)}"
                )
        return len(reasons), reasons

    def ge_total(self, run: Run) -> float:
        return sum(cost[0] for _, _, cost in run.outputs)


WORKLOADS = {
    w.name: w for w in (DesFFTvla, DesPDCouplingTvla, SeqTvlaPaperscale, CompilePaper)
}
