"""Experiment registry: one module per table/figure of the paper.

======  ==============================================  ==============
id      paper content                                   module
======  ==============================================  ==============
table1  secAND2 input-sequence leakage (24 orders)      eval.table1
table2  delay schedules for 3/4-variable products       eval.table2
table3  utilisation of the full DES engines             eval.table3
fig13   power trace, FF engine                          eval.traces
fig16   power trace, PD engine                          eval.traces
fig14   TVLA of the FF engine (PRNG off/on)             eval.fig14
fig15   DelayUnit size sweep                            eval.fig15
fig17   TVLA of the PD engine (coupling)                eval.fig17
======  ==============================================  ==============

plus ``fault_sweep`` (eval.fault_sweep): the delay-variation
margin-erosion sweep over the fault-injection subsystem — not a paper
figure, but the robustness question behind Sec. VII-B; ``bench``
(eval.bench): the simulator-throughput benchmark that writes
``BENCH_simulator.json`` (schema ``bench_simulator/v6``); and
``compile_costs`` (eval.compile_costs): the masking compiler's
acceptance sheet — certify all ten paper S-boxes and compare compiled
vs hand-built DES cost.

Each module exposes ``run(...)`` returning a result object with a
``render()`` method; the benchmark harness under ``benchmarks/`` calls
these with reduced budgets, and ``examples/reproduce_paper.py`` runs the
full scaled campaign.
"""

from typing import Callable, Dict

from . import (
    bench,
    compile_costs,
    fault_sweep,
    fig14,
    fig15,
    fig17,
    report,
    table1,
    table2,
    table3,
    traces,
)

EXPERIMENTS: Dict[str, Callable] = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "fig13": lambda **kw: traces.run(variant="ff", **kw),
    "fig16": lambda **kw: traces.run(variant="pd", **kw),
    "fig14": fig14.run,
    "fig15": fig15.run,
    "fig17": fig17.run,
    "fault_sweep": fault_sweep.run,
    "bench": bench.run,
    "compile_costs": compile_costs.run,
}

__all__ = [
    "EXPERIMENTS",
    "bench",
    "compile_costs",
    "fault_sweep",
    "fig14",
    "fig15",
    "fig17",
    "report",
    "table1",
    "table2",
    "table3",
    "traces",
]
