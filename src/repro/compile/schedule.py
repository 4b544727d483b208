"""Pass 3: arrival-order scheduling.

Every secAND2 site must see its ``y1`` operand settle strictly last
(Table I).  The two emission styles enforce this differently:

* **FF style** — pipeline layering.  Each share is valid from a known
  clock cycle; every gadget's ``y1`` runs through a DFF chain sized so
  it lands exactly one cycle after the latest other operand.  The
  layering is computed here (:func:`ff_layers`) and checked
  structurally by the certifier (FF-depth dynamic programming over the
  emitted netlist).
* **PD style** — DelayUnit staggering.  Inner/select variable shares
  are staggered ``(g-1-p, g-1+p)`` DelayUnits for position ``p`` in a
  group of ``g`` (reproducing the hand-built DES schedules
  ``PD_MINI_SCHEDULE``/``PD_SELECT_SCHEDULE``), the stage-2 operands
  use the paper's ``(1,1)``/``(0,2)`` stagger, and the one free
  parameter — LUTs per DelayUnit — is solved from the
  :func:`repro.netlist.timing.arrival_times` constraints: emit at two
  trial sizes, fit each site's ordering margin as an affine function of
  ``n_luts`` (every path delay is), and take the smallest size whose
  worst margin clears the user-requested figure
  (:func:`solve_pd_n_luts`).  A pinned, too-small size is rejected with
  a :class:`ScheduleError` carrying the violating sites — and, via the
  certifier, an exact-verifier counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..netlist.safety import OrderingViolation, ordering_margins
from ..obs.trace import trace
from .lower import CompileError, LoweredPlan

if TYPE_CHECKING:
    from .emit import CompiledNetlist

__all__ = [
    "ScheduleError",
    "stagger_units",
    "PDSchedule",
    "FFSchedule",
    "ff_layers",
    "solve_pd_n_luts",
    "MAX_N_LUTS",
]

#: Largest DelayUnit size the solver will try (the paper sweeps 1..10;
#: headroom above that covers large requested margins).
MAX_N_LUTS = 24

#: Stage-2 stagger, DelayUnits: select (x operand) and row (y operand).
STAGE2_SEL_UNITS = (1, 1)
STAGE2_ROW_UNITS = (0, 2)


class ScheduleError(CompileError):
    """The requested DelayUnit budget cannot order the netlist.

    Carries the static violations, the solver's required size when it
    is known, and — when the certifier confirmed a violating site —
    an exact-verifier counterexample (:attr:`counterexample` /
    :attr:`site_spec`) suitable for VCD export.
    """

    def __init__(
        self,
        message: str,
        violations: Tuple[OrderingViolation, ...] = (),
        required_n_luts: Optional[int] = None,
        counterexample=None,
        site_spec=None,
    ):
        super().__init__(message)
        self.violations = tuple(violations)
        self.required_n_luts = required_n_luts
        self.counterexample = counterexample
        self.site_spec = site_spec


def stagger_units(group_size: int) -> Tuple[Tuple[int, int], ...]:
    """Per-position ``(share0, share1)`` DelayUnits for a variable group.

    Position ``p`` of ``g`` gets ``(g-1-p, g-1+p)``: share-0 arrivals
    descend (so ``y0`` of the outermost chain operand comes first) and
    share-1 arrivals ascend (so each chain link's ``y1`` outranks the
    whole prefix).  For ``g=4`` this is exactly the hand-built DES
    mini-S-box schedule ``{0:(3,3), 1:(2,4), 2:(1,5), 3:(0,6)}``; for
    ``g=2`` the select schedule ``{x0:(1,1), x5:(0,2)}``.
    """
    return tuple((group_size - 1 - p, group_size - 1 + p) for p in range(group_size))


@dataclass(frozen=True)
class PDSchedule:
    """Resolved PD delay assignment."""

    n_luts: int
    margin_ps: int
    inner_units: Tuple[Tuple[int, int], ...]
    select_units: Tuple[Tuple[int, int], ...]
    stage2_sel_units: Tuple[int, int] = STAGE2_SEL_UNITS
    stage2_row_units: Tuple[int, int] = STAGE2_ROW_UNITS

    def to_json_dict(self) -> dict:
        return {
            "style": "pd",
            "n_luts": self.n_luts,
            "requested_margin_ps": self.margin_ps,
            "inner_units": [list(u) for u in self.inner_units],
            "select_units": [list(u) for u in self.select_units],
        }


@dataclass(frozen=True)
class FFSchedule:
    """Resolved FF pipeline layering (valid cycle per value)."""

    product_valid: Dict[int, int]
    row_valid: Tuple[Tuple[int, ...], ...]
    select_valid: int
    stage2_valid: int
    output_valid: int
    n_cycles: int

    def to_json_dict(self) -> dict:
        return {
            "style": "ff",
            "n_cycles": self.n_cycles,
            "output_valid_cycle": self.output_valid,
        }


def pd_schedule(plan: LoweredPlan, n_luts: int, margin_ps: int) -> PDSchedule:
    return PDSchedule(
        n_luts=n_luts,
        margin_ps=margin_ps,
        inner_units=stagger_units(plan.n_inner),
        select_units=stagger_units(plan.n_select),
    )


def ff_layers(plan: LoweredPlan) -> FFSchedule:
    """Valid-from cycle of every value in the FF pipeline.

    Input registers are valid in cycle 1; a product chain of length
    ``d`` is valid in cycle ``d+1``; the select minterm register in
    cycle ``k+1``; each stage-2 product one cycle after its operands;
    the output register one cycle after the final XOR plane.
    """
    product_valid: Dict[int, int] = {}
    for mask in plan.monomials:
        prefix, _ = plan.factor(mask)
        lx = product_valid.get(prefix, 1)
        product_valid[mask] = max(lx, 1) + 1

    row_valid: List[Tuple[int, ...]] = []
    for row in plan.rows:
        vals = []
        for b in range(plan.spec.n_outputs):
            if row.bit_is_constant(b):
                vals.append(0)
                continue
            v = 1 if row.linear[b] else 0
            for mask in row.products[b]:
                v = max(v, product_valid[mask])
            vals.append(v)
        row_valid.append(tuple(vals))

    if plan.n_select == 0:
        out_valid = max(row_valid[0])
        return FFSchedule(
            product_valid=product_valid,
            row_valid=tuple(row_valid),
            select_valid=0,
            stage2_valid=0,
            output_valid=out_valid + 1,
            n_cycles=out_valid + 2,
        )

    select_valid = plan.n_select + 1  # registered refreshed minterm
    stage2_valid = 0
    for r, row in enumerate(plan.rows):
        for b in range(plan.spec.n_outputs):
            if row.bit_is_constant(b):
                if row.constants[b]:
                    stage2_valid = max(stage2_valid, select_valid)
                continue
            stage2_valid = max(
                stage2_valid, max(select_valid, row_valid[r][b]) + 1
            )
    return FFSchedule(
        product_valid=product_valid,
        row_valid=tuple(row_valid),
        select_valid=select_valid,
        stage2_valid=stage2_valid,
        output_valid=stage2_valid + 1,
        n_cycles=stage2_valid + 2,
    )


def solve_pd_n_luts(
    plan: LoweredPlan,
    refresh_choice,
    margin_ps: int,
    secand2_style: str = "lut",
    max_n_luts: int = MAX_N_LUTS,
) -> Tuple[int, Dict[int, "CompiledNetlist"]]:
    """Smallest DelayUnit size meeting the requested ordering margin.

    Emits the netlist in ``secand2_style`` at two trial sizes, fits
    every site's ``y1`` margin and ``y0`` slack as affine functions of
    ``n_luts``, and returns the smallest integer size making all of
    them non-negative with ``y1`` margins at least ``max(1, margin_ps)``.
    Also returns the trial netlists keyed by size, so a caller whose
    solved size is a trial size need not emit it again.
    """
    from .emit import emit_pd

    emitted = {}
    for n in (1, 2):
        with trace("compile.emit", style="pd", n_luts=n):
            emitted[n] = emit_pd(
                plan,
                refresh_choice,
                pd_schedule(plan, n, margin_ps),
                secand2_style=secand2_style,
            )
    m1, m2 = (ordering_margins(emitted[n].circuit) for n in (1, 2))
    if len(m1) != len(m2):
        raise ScheduleError(
            "internal: PD emission is not structurally stable across "
            f"DelayUnit sizes ({len(m1)} vs {len(m2)} sites)"
        )
    target = max(1, int(margin_ps))
    best = 1
    for a, b in zip(m1, m2):
        # affine in n_luts: value(n) = v1 + (v2 - v1) * (n - 1)
        for v1, v2, floor in (
            (a.y1_margin_ps, b.y1_margin_ps, target),
            (a.y0_margin_ps, b.y0_margin_ps, 0.0),
        ):
            slope = v2 - v1
            if v1 >= floor:
                # satisfied at the smallest size; the final whole-netlist
                # check guards the (theoretical) negative-slope case.
                continue
            if slope <= 0:
                raise ScheduleError(
                    f"site {a.gadget}: ordering margin does not improve "
                    f"with DelayUnit size (slope {slope:.0f} ps/LUT) — "
                    "the plan cannot be scheduled",
                )
            best = max(best, 1 + math.ceil((floor - v1) / slope))
    if best > max_n_luts:
        raise ScheduleError(
            f"requested margin {margin_ps} ps needs DelayUnits of "
            f"{best} LUTs (> max {max_n_luts})",
            required_n_luts=best,
        )
    return best, emitted
