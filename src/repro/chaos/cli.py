"""``python -m repro chaos`` — run the chaos matrix from the shell.

Exit status 0 only when every scenario upholds the supervisor's
contract (injection fired; bitwise recovery or structured error).
Intended for CI resilience jobs and manual soak runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..eval.report import render_table, rule
from .harness import run_chaos_matrix
from .policy import FAILURE_MODES


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos", description=__doc__
    )
    parser.add_argument(
        "--mode",
        action="append",
        choices=FAILURE_MODES,
        help="failure mode(s) to run (default: all)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="first schedule seed (default 0)"
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="number of consecutive seeds per mode (soak runs)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full-size campaigns instead of smoke budgets",
    )
    parser.add_argument(
        "--json", type=str, default=None, help="write results to this path"
    )
    args = parser.parse_args(argv)

    modes = tuple(args.mode) if args.mode else FAILURE_MODES
    seeds = tuple(range(args.seed, args.seed + max(1, args.seeds)))
    results = run_chaos_matrix(modes=modes, seeds=seeds, quick=not args.full)

    print(rule())
    print(f"# chaos matrix: {len(modes)} modes x {len(seeds)} seeds")
    print(rule())
    print(
        render_table(
            ["mode", "seed", "injected", "outcome", "verdict",
             "time", "recovery events"],
            [r.row() for r in results],
        )
    )
    failures = [r for r in results if not r.ok]
    print(rule())
    print(
        f"{len(results) - len(failures)}/{len(results)} scenarios ok"
        + (f" — {len(failures)} FAILED" if failures else "")
    )
    if args.json:
        payload = {
            "schema": "chaos_matrix/v2",
            "scenarios": [
                {
                    "mode": r.mode,
                    "seed": r.seed,
                    "injected": r.injected,
                    "recovered": r.recovered,
                    "bitwise": r.bitwise,
                    "structured_error": r.structured_error,
                    "stats": r.stats,
                    "seconds": r.seconds,
                    "ok": r.ok,
                }
                for r in results
            ],
            "ok": not failures,
        }
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {args.json}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
