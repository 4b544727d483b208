"""Command-line entry point: ``python -m repro <experiment...>``.

Runs the paper experiments (same registry as
``examples/reproduce_paper.py``) or prints the registry.

Examples::

    python -m repro --list
    python -m repro table3
    python -m repro table1 fig14 --quick
    python -m repro verify --preset secand2_pd
    python -m repro compile --des-sbox 0
    python -m repro chaos --mode corrupt_checkpoint
    python -m repro obs record --out trace.jsonl

``verify``, ``compile``, ``chaos`` and ``obs`` are subcommands with
their own flags (:mod:`repro.verify.cli`, :mod:`repro.compile.cli`,
:mod:`repro.chaos.cli`, :mod:`repro.obs.cli`); everything else is an
experiment id.
"""

from __future__ import annotations

import argparse
import sys
import time

from .eval import EXPERIMENTS, fig14, fig15, fig17, table1, table2, table3, traces
from .eval.report import rule

_QUICK_KWARGS = {
    "table1": dict(
        n_traces=10_000,
        sequences=[("y0", "y1", "x1", "x0"), ("x0", "x1", "y0", "y1")],
    ),
    "table2": dict(n_traces=12_000),
    "table3": dict(),
    "fig13": dict(n_traces=16),
    "fig16": dict(n_traces=16),
    "fig14": dict(n_traces=6_000, n_traces_off=3_000),
    "fig15": dict(sizes=(1, 5, 10), n_traces=5_000, extended_sizes=()),
    "fig17": dict(n_traces=8_000, n_traces_off=3_000, coupling_coefficient=5.0),
    "fault_sweep": dict(
        sigmas=(0, 300, 600), n_traces=3_000, include_des=False
    ),
    "compile_costs": dict(),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "verify":
        from .verify.cli import main as verify_main

        return verify_main(argv[1:])
    if argv and argv[0] == "compile":
        from .compile.cli import main as compile_main

        return compile_main(argv[1:])
    if argv and argv[0] == "chaos":
        from .chaos.cli import main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "obs":
        from .obs.cli import main as obs_main

        return obs_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--quick", action="store_true", help="smoke budgets")
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("  verify  (subcommand: python -m repro verify --help)")
        print("  compile (subcommand: python -m repro compile --help)")
        print("  chaos   (subcommand: python -m repro chaos --help)")
        print("  obs     (subcommand: python -m repro obs --help)")
        return 0

    for name in args.experiments:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; use --list", file=sys.stderr)
            return 2
        print(rule())
        print(f"# {name}")
        print(rule())
        t0 = time.time()
        kwargs = _QUICK_KWARGS[name] if args.quick else {}
        result = EXPERIMENTS[name](**kwargs)
        print(result.render())
        print(f"[{name}: {time.time() - t0:.0f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
