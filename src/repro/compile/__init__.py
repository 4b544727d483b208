"""repro.compile — automated glitch-safe masking compiler (Sec. III-IV).

Turns an *unmasked* specification (truth table, ANF, or combinational
:class:`~repro.netlist.circuit.Circuit`) into a first-order masked
netlist built from the paper's secAND2 gadgets, through four passes:

1. :mod:`~repro.compile.lower` — ANF extraction and product-tree
   lowering into the paper's S-box shape (inner core chains + MUX
   stage);
2. :mod:`~repro.compile.refresh` — dependency-tracking refresh
   insertion, optionally minimised by the DES selective-refresh greedy
   loop (:mod:`repro.core.refresh_search`);
3. :mod:`~repro.compile.schedule` — arrival-order scheduling: FF
   pipeline layering, or PD DelayUnit sizing solved from the netlist
   timing model;
4. :mod:`~repro.compile.certify` — the certification pipeline (static
   safety, exact glitch-extended probing of every arrival class,
   uniformity audit, optional TVLA spot-check, cost report).

Entry point::

    from repro.compile import compile_spec, des_sbox_spec
    result = compile_spec(des_sbox_spec(0), style="pd", margin_ps=50)
    cert = result.certify()
    assert cert.ok

or from the command line: ``python -m repro compile --des-sbox 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..obs.trace import trace
from .certify import (
    Certificate,
    CostReport,
    SiteClass,
    certify_netlist,
    site_classes,
    site_spec_for_arrivals,
)
from .emit import CompiledNetlist, emit_ff, emit_pd
from .lower import CompileError, LoweredPlan, RowPlan, lower
from .model import PlanModel, uniformity_defect
from .refresh import (
    REFRESH_MODES,
    RefreshChoice,
    RefreshPosition,
    plan_refresh,
    refresh_positions,
    static_required,
)
from .schedule import (
    MAX_N_LUTS,
    FFSchedule,
    PDSchedule,
    ScheduleError,
    ff_layers,
    pd_schedule,
    solve_pd_n_luts,
    stagger_units,
)
from .spec import (
    FunctionSpec,
    aes_sbox_spec,
    des_sbox_spec,
    mobius_transform,
    present_sbox_spec,
)

__all__ = [
    "CompileError",
    "CompileResult",
    "CompiledNetlist",
    "Certificate",
    "CostReport",
    "FunctionSpec",
    "LoweredPlan",
    "PlanModel",
    "RefreshChoice",
    "ScheduleError",
    "aes_sbox_spec",
    "compile_spec",
    "certify_netlist",
    "des_sbox_spec",
    "lower",
    "plan_refresh",
    "present_sbox_spec",
    "solve_pd_n_luts",
]


@dataclass
class CompileResult:
    """A compiled netlist plus everything needed to certify it."""

    netlist: CompiledNetlist
    margin_ps: int
    #: DelayUnit size actually used (PD) — solver output or the pinned
    #: request; ``None`` for the FF style.
    n_luts: Optional[int] = None
    #: True when the solver chose :attr:`n_luts` (vs a user pin).
    n_luts_solved: bool = False

    @property
    def plan(self) -> LoweredPlan:
        return self.netlist.plan

    @property
    def circuit(self):
        return self.netlist.circuit

    @property
    def style(self) -> str:
        return self.netlist.style

    def certify(self, **kwargs) -> Certificate:
        """Run the certification pipeline (see :func:`certify_netlist`)."""
        kwargs.setdefault("margin_ps", self.margin_ps)
        return certify_netlist(self.netlist, **kwargs)

    def to_json_dict(self) -> dict:
        return {
            "name": self.plan.spec.name,
            "style": self.style,
            "n_luts": self.n_luts,
            "n_luts_solved": self.n_luts_solved,
            "requested_margin_ps": self.margin_ps,
            "n_secand2": self.netlist.n_secand2,
            "fresh_bits": self.netlist.fresh_bits,
            "n_cycles": self.netlist.n_cycles,
            "refresh": self.netlist.refresh.to_json_dict(),
            "schedule": self.netlist.schedule.to_json_dict(),
        }


def _reject_unschedulable(netlist, plan, choice, margin_ps, n_luts, secand2_style):
    """Pinned DelayUnit budget fails the static check: build the full
    rejection — violations, the solver's actual requirement, and an
    exact-verifier counterexample for the worst violating site."""
    from ..netlist.safety import check_secand2_ordering
    from ..verify.report import verify

    violations = check_secand2_ordering(netlist.circuit, min_margin_ps=margin_ps)
    if not violations:
        return netlist
    required = None
    try:
        required, _ = solve_pd_n_luts(
            plan, choice, margin_ps, secand2_style=secand2_style
        )
    except ScheduleError as exc:
        required = exc.required_n_luts
    worst = min(violations, key=lambda v: v.margin_ps)
    counterexample = None
    site_spec = None
    lo = min(worst.at_x0, worst.at_x1, worst.at_y0, worst.at_y1)
    arrivals = tuple(
        int(round(a - lo))
        for a in (worst.at_x0, worst.at_x1, worst.at_y0, worst.at_y1)
    )
    spec = site_spec_for_arrivals(
        arrivals, name=f"{plan.spec.name}_reject_{worst.gadget}"
    )
    result = verify(spec)
    if not result.secure:
        counterexample = result.leaks[0]
        site_spec = spec
    hint = "" if required is None else f"; solver requires n_luts={required}"
    raise ScheduleError(
        f"{plan.spec.name}: n_luts={n_luts} leaves {len(violations)} "
        f"ordering violations at margin {margin_ps} ps "
        f"(worst: {worst}){hint}",
        violations=violations,
        required_n_luts=required,
        counterexample=counterexample,
        site_spec=site_spec,
    )


def compile_spec(
    spec: Union[FunctionSpec, Sequence[int]],
    style: str = "pd",
    margin_ps: int = 50,
    n_luts: Optional[int] = None,
    refresh: str = "auto",
    select_vars: Optional[Sequence[int]] = None,
    all_products: Optional[bool] = None,
    secand2_style: str = "lut",
    refresh_n_per_input: int = 800,
    seed: int = 0,
) -> CompileResult:
    """Compile an unmasked function into a first-order masked netlist.

    Args:
        spec: A :class:`FunctionSpec` or a raw truth table.
        style: ``"pd"`` (path-delay DelayUnits, the paper's low-latency
            design) or ``"ff"`` (register-pipelined secAND2-FF).
        margin_ps: Required ``y1`` ordering margin for the PD static
            check; the DelayUnit solver sizes against it.
        n_luts: Pin the DelayUnit size instead of solving.  A pin too
            small for the requested margin raises
            :class:`ScheduleError` carrying the static violations and
            an exact-verifier counterexample.
        refresh: ``"full"`` / ``"static"`` / ``"selective"`` / ``"auto"``
            (see :func:`repro.compile.refresh.plan_refresh`).
        select_vars / all_products: Lowering overrides
            (see :func:`repro.compile.lower.lower`).

    Returns:
        A :class:`CompileResult`; call :meth:`CompileResult.certify`
        for the certification pipeline.
    """
    if not isinstance(spec, FunctionSpec):
        spec = FunctionSpec.from_truth_table(spec)
    if style not in ("pd", "ff"):
        raise CompileError(f'style must be "pd" or "ff", got {style!r}')

    with trace("compile.lower", spec=spec.name, style=style):
        plan = lower(spec, select_vars=select_vars, all_products=all_products)
    with trace("compile.refresh", mode=refresh):
        choice = plan_refresh(
            plan,
            mode=refresh,
            n_per_input=refresh_n_per_input,
            seed=seed,
        )

    if style == "ff":
        with trace("compile.emit", style="ff"):
            netlist = emit_ff(plan, choice, secand2_style=secand2_style)
        return CompileResult(netlist=netlist, margin_ps=margin_ps)

    if n_luts is None:
        with trace("compile.schedule", margin_ps=margin_ps):
            solved, emitted = solve_pd_n_luts(
                plan, choice, margin_ps, secand2_style=secand2_style
            )
        netlist = emitted.get(solved)
        if netlist is None:
            with trace("compile.emit", style="pd"):
                netlist = emit_pd(
                    plan,
                    choice,
                    pd_schedule(plan, solved, margin_ps),
                    secand2_style=secand2_style,
                )
        return CompileResult(
            netlist=netlist,
            margin_ps=margin_ps,
            n_luts=solved,
            n_luts_solved=True,
        )

    with trace("compile.schedule", margin_ps=margin_ps, n_luts=int(n_luts)):
        schedule = pd_schedule(plan, int(n_luts), margin_ps)
    with trace("compile.emit", style="pd"):
        netlist = emit_pd(plan, choice, schedule, secand2_style=secand2_style)
    _reject_unschedulable(netlist, plan, choice, margin_ps, n_luts, secand2_style)
    return CompileResult(netlist=netlist, margin_ps=margin_ps, n_luts=int(n_luts))
