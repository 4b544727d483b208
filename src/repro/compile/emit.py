"""Netlist emission: lowered plan + refresh choice + schedule -> Circuit.

Both emitters share the dataflow of the hand-built DES engines
(:mod:`repro.des.masked_netlist`): an input register layer, the inner
product chains, the refresh layer, per-row XOR planes, a select-minterm
tree with refreshed+registered minterms, the stage-2 AND, and a final
XOR plane.  They differ only in how the secAND2 ordering constraint is
met:

* :func:`emit_ff` — every gadget's ``y1`` runs through a depth-matched
  DFF chain (plain DFFs, no enables, so the whole pipeline can be
  driven as one :class:`~repro.verify.probes.GadgetSpec` and exercised
  by the exact verifier).  Chains from the same source wire are
  deduplicated, mirroring the hand-built engines' shared ``y1`` FFs.
* :func:`emit_pd` — variable shares are staggered through DelayUnit
  lines per the :class:`~repro.compile.schedule.PDSchedule`, with a
  mid-register layer between the inner stage and the MUX stage exactly
  like the hand-built PD engine.

One deliberate difference from the hand-built engines: chain links
consume the *refreshed* prefix product when its refresh position is
kept.  Recombination is unchanged (both shares are XOR-ed with the same
mask bit) but the chain-internal share pair is re-uniformised, which
removes the raw-chain transient bias the ``pchain3_pd`` verify preset
documents.

Wire naming: inputs ``x{i}s0``/``x{i}s1`` per spec variable, fresh
randomness ``r{k}`` per *kept* refresh position, outputs
``y{b}s0``/``y{b}s1`` — the :func:`repro.des.masked_netlist.build_standalone_sbox`
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.gadgets import SharePair, masked_not, refresh as refresh_gadget, secand2
from ..netlist.circuit import Circuit
from .lower import LoweredPlan
from .refresh import RefreshChoice
from .schedule import FFSchedule, PDSchedule, ff_layers

__all__ = ["CompiledNetlist", "emit_pd", "emit_ff"]


@dataclass
class CompiledNetlist:
    """An emitted masked netlist plus its driving metadata."""

    plan: LoweredPlan
    refresh: RefreshChoice
    style: str
    circuit: Circuit
    n_cycles: int
    schedule: "PDSchedule | FFSchedule"
    input_shares: Tuple[Tuple[str, str], ...]
    rand_names: Tuple[str, ...]
    output_shares: Tuple[Tuple[str, str], ...]

    @property
    def n_secand2(self) -> int:
        return len(self.circuit.annotations.get("secand2", ()))

    @property
    def fresh_bits(self) -> int:
        return len(self.rand_names)

    def gadget_spec(self, name: Optional[str] = None, period_ps: Optional[int] = None):
        """The whole netlist as an exact-verifier :class:`GadgetSpec`.

        Every spec variable is one secret with its two share inputs;
        all inputs arrive at t=0 of cycle 0 (the input register layer
        does the staggering).
        """
        from ..verify.probes import GadgetSpec

        spec = GadgetSpec(
            name=name if name is not None else f"{self.plan.spec.name}_{self.style}",
            circuit=self.circuit,
            secrets=tuple(
                (f"x{i}", (s0, s1))
                for i, (s0, s1) in enumerate(self.input_shares)
            ),
            randoms=self.rand_names,
            schedule=(),
            n_cycles=self.n_cycles,
            period_ps=period_ps,
        )
        spec.validate()
        return spec

    def run_shares(
        self, s0: np.ndarray, s1: np.ndarray, rand: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Drive the netlist on share arrays; returns output shares.

        ``s0``/``s1`` are ``(n_inputs, N)`` boolean arrays, ``rand`` is
        ``(fresh_bits, N)``.  They are driven through the exact
        verifier's protocol (:meth:`~repro.verify.probes.GadgetSpec.drive`:
        all at cycle 0, from the all-zero reset state) and outputs are
        read after ``n_cycles`` cycles.  The netlist is simulated once,
        so its schedule is not compiled.
        """
        from ..sim.clocking import ClockedHarness

        spec = self.gadget_spec()
        harness = ClockedHarness(
            self.circuit, s0.shape[1], period_ps=spec.resolved_period_ps,
            check_timing=False, compile_schedules=False,
        )
        values = dict(zip(self.rand_names, rand))
        for i, (n0, n1) in enumerate(self.input_shares):
            values[n0], values[n1] = s0[i], s1[i]
        spec.drive(harness, values)
        out = harness.output_values()
        o0 = np.stack([out[a] for a, _ in self.output_shares])
        o1 = np.stack([out[b] for _, b in self.output_shares])
        return o0, o1

    def recombine(self, s0: np.ndarray, s1: np.ndarray, rand: np.ndarray) -> np.ndarray:
        """Unshared outputs as table-entry integers."""
        o0, o1 = self.run_shares(s0, s1, rand)
        m = self.plan.spec.n_outputs
        out = np.zeros(s0.shape[1], dtype=np.int64)
        for b in range(m):
            out |= (o0[b] ^ o1[b]).astype(np.int64) << (m - 1 - b)
        return out


class _Emitter:
    """Shared construction state of both emitters."""

    def __init__(
        self,
        plan: LoweredPlan,
        refresh_choice: RefreshChoice,
        style: str,
        secand2_style: str,
    ):
        self.plan = plan
        self.refresh_choice = refresh_choice
        self.secand2_style = secand2_style
        self.c = Circuit(f"compiled_{plan.spec.name}_{style}")
        self.rand_names: List[str] = []
        self._rand_wire: Dict[Tuple[str, int], int] = {}
        kept = {
            pos.key
            for pos, keep in zip(refresh_choice.positions, refresh_choice.mask)
            if keep
        }
        for pos in refresh_choice.positions:
            if pos.key not in kept:
                continue
            name = f"r{len(self.rand_names)}"
            self.rand_names.append(name)
            self._rand_wire[pos.key] = self.c.add_input(name)
        self.kept = kept

    def inputs(self) -> List[SharePair]:
        ins = []
        for i in range(self.plan.spec.n_inputs):
            ins.append(
                SharePair(
                    self.c.add_input(f"x{i}s0"), self.c.add_input(f"x{i}s1")
                )
            )
        return ins

    def refreshed(self, kind: str, key: int, pair: SharePair, tag: str) -> SharePair:
        if (kind, key) not in self.kept:
            return pair
        return refresh_gadget(self.c, pair, self._rand_wire[(kind, key)], tag=tag)

    def mark_outputs(self, outputs: List[SharePair]) -> Tuple[Tuple[str, str], ...]:
        names = []
        for b, pair in enumerate(outputs):
            n0, n1 = f"y{b}s0", f"y{b}s1"
            self.c.mark_output(n0, pair.s0)
            self.c.mark_output(n1, pair.s1)
            names.append((n0, n1))
        return tuple(names)

    def xor_plane(
        self,
        row,
        b: int,
        mid: List[SharePair],
        term: Dict[int, SharePair],
        tag: str,
    ) -> SharePair:
        wires0 = [mid[p].s0 for p in row.linear[b]]
        wires1 = [mid[p].s1 for p in row.linear[b]]
        wires0 += [term[mask].s0 for mask in row.products[b]]
        wires1 += [term[mask].s1 for mask in row.products[b]]
        pair = SharePair(
            self.c.xor_tree(wires0, name=f"{tag}_s0"),
            self.c.xor_tree(wires1, name=f"{tag}_s1"),
        )
        if row.constants[b]:
            pair = masked_not(self.c, pair, tag=f"{tag}_const")
        return pair


# ----------------------------------------------------------------------
# PD style
# ----------------------------------------------------------------------
def emit_pd(
    plan: LoweredPlan,
    refresh_choice: RefreshChoice,
    schedule: PDSchedule,
    secand2_style: str = "lut",
) -> CompiledNetlist:
    """Path-delay emission (single stage-A cycle + optional MUX cycle)."""
    em = _Emitter(plan, refresh_choice, "pd", secand2_style)
    c = em.c
    ins = em.inputs()
    n_luts = schedule.n_luts

    def delayed(pair: SharePair, units: Tuple[int, int], tag: str) -> SharePair:
        return SharePair(
            c.delay_line(pair.s0, units[0], n_luts, name=f"{tag}_dl0"),
            c.delay_line(pair.s1, units[1], n_luts, name=f"{tag}_dl1"),
        )

    # input register layer
    reg = [
        SharePair(
            c.dff(p.s0, name=f"in{i}_ff0"), c.dff(p.s1, name=f"in{i}_ff1")
        )
        for i, p in enumerate(ins)
    ]

    # stage A: staggered inner shares, product chains, refresh, rows
    mid = [
        delayed(reg[v], schedule.inner_units[p], f"mid{p}")
        for p, v in enumerate(plan.inner_vars)
    ]
    term: Dict[int, SharePair] = {}
    for mask in plan.monomials:
        prefix, extra = plan.factor(mask)
        x = term[prefix] if prefix in term else mid[plan.mask_positions(prefix)[0]]
        raw = secand2(
            c, x, mid[extra], tag=f"p{mask:x}", style=secand2_style
        )
        term[mask] = em.refreshed("prod", mask, raw, f"ref_p{mask:x}")

    rows_out: List[List[Optional[SharePair]]] = []
    for row in plan.rows:
        bits: List[Optional[SharePair]] = []
        for b in range(plan.spec.n_outputs):
            if row.bit_is_constant(b):
                bits.append(None)
                continue
            bits.append(
                em.xor_plane(row, b, mid, term, f"row{row.row}b{b}")
            )
        rows_out.append(bits)

    if plan.n_select == 0:
        outputs = [p for p in rows_out[0]]
        names = em.mark_outputs(outputs)
        netlist = CompiledNetlist(
            plan=plan,
            refresh=refresh_choice,
            style="pd",
            circuit=c,
            n_cycles=2,
            schedule=schedule,
            input_shares=tuple(
                (f"x{i}s0", f"x{i}s1") for i in range(plan.spec.n_inputs)
            ),
            rand_names=tuple(em.rand_names),
            output_shares=names,
        )
        c.check()
        return netlist

    # select minterm tree over staggered outer literals
    outer = [
        delayed(reg[v], schedule.select_units[p], f"sel{p}")
        for p, v in enumerate(plan.select_vars)
    ]
    inv_cache: Dict[int, int] = {}

    def literal(p: int, v: int) -> SharePair:
        if v:
            return outer[p]
        if p not in inv_cache:
            inv_cache[p] = c.inv(outer[p].s0, name=f"sel{p}_inv0")
        return SharePair(inv_cache[p], outer[p].s1)

    # minterm v of the first `level` literals chains minterm v >> 1 of
    # the level below with literal (level - 1, v & 1); each row walks
    # its own chain, building the nodes it is first to need, so gates
    # keep the order of a memoised depth-first build.
    nodes: Dict[Tuple[int, int], SharePair] = {}
    sel_mid: List[SharePair] = []
    for r in range(plan.n_rows):
        x = literal(0, r >> (plan.n_select - 1))
        for level in range(2, plan.n_select + 1):
            v = r >> (plan.n_select - level)
            if (level, v) not in nodes:
                nodes[(level, v)] = secand2(
                    c,
                    x,
                    literal(level - 1, v & 1),
                    tag=f"sel{level}_{v:x}",
                    style=secand2_style,
                )
            x = nodes[(level, v)]
        sel = em.refreshed("sel", r, x, f"ref_sel{r}")
        sel_mid.append(
            SharePair(
                c.dff(sel.s0, name=f"selreg{r}_0"),
                c.dff(sel.s1, name=f"selreg{r}_1"),
            )
        )

    # mid registers for the row planes feeding stage B
    row_mid: List[List[Optional[SharePair]]] = []
    for r, bits in enumerate(rows_out):
        regs: List[Optional[SharePair]] = []
        for b, pair in enumerate(bits):
            if pair is None:
                regs.append(None)
                continue
            regs.append(
                SharePair(
                    c.dff(pair.s0, name=f"rowreg{r}b{b}_0"),
                    c.dff(pair.s1, name=f"rowreg{r}b{b}_1"),
                )
            )
        row_mid.append(regs)

    # stage B: sel AND row-bit with the paper's (1,1)/(0,2) stagger
    out_terms: List[List[SharePair]] = [[] for _ in range(plan.spec.n_outputs)]
    for r, row in enumerate(plan.rows):
        seld = delayed(sel_mid[r], schedule.stage2_sel_units, f"seld{r}")
        for b in range(plan.spec.n_outputs):
            if row.bit_is_constant(b):
                if row.constants[b]:
                    out_terms[b].append(seld)
                continue
            rowd = delayed(
                row_mid[r][b], schedule.stage2_row_units, f"rowd{r}b{b}"
            )
            out_terms[b].append(
                secand2(
                    c, seld, rowd, tag=f"m2_{r}b{b}", style=secand2_style
                )
            )

    outputs = []
    for b, terms in enumerate(out_terms):
        outputs.append(
            SharePair(
                c.xor_tree([t.s0 for t in terms], name=f"out{b}_s0"),
                c.xor_tree([t.s1 for t in terms], name=f"out{b}_s1"),
            )
        )
    names = em.mark_outputs(outputs)
    c.check()
    return CompiledNetlist(
        plan=plan,
        refresh=refresh_choice,
        style="pd",
        circuit=c,
        n_cycles=3,
        schedule=schedule,
        input_shares=tuple(
            (f"x{i}s0", f"x{i}s1") for i in range(plan.spec.n_inputs)
        ),
        rand_names=tuple(em.rand_names),
        output_shares=names,
    )


# ----------------------------------------------------------------------
# FF style
# ----------------------------------------------------------------------
def emit_ff(
    plan: LoweredPlan,
    refresh_choice: RefreshChoice,
    schedule: Optional[FFSchedule] = None,
    secand2_style: str = "lut",
) -> CompiledNetlist:
    """FF emission: plain-DFF pipeline with depth-matched ``y1`` chains."""
    if schedule is None:
        schedule = ff_layers(plan)
    em = _Emitter(plan, refresh_choice, "ff", secand2_style)
    c = em.c
    ins = em.inputs()

    reg = [
        SharePair(
            c.dff(p.s0, name=f"in{i}_ff0"), c.dff(p.s1, name=f"in{i}_ff1")
        )
        for i, p in enumerate(ins)
    ]

    # deduplicated DFF chains: chain(wire, depth) shared across gadgets
    chains: Dict[Tuple[int, int], int] = {}

    def chain(wire: int, depth: int) -> int:
        if depth == 0:
            return wire
        key = (wire, depth)
        if key not in chains:
            prev = chain(wire, depth - 1)
            chains[key] = c.dff(prev, name=f"y1ch_w{wire}_q{depth}")
        return chains[key]

    def gadget(
        x: SharePair,
        y: SharePair,
        x_valid: int,
        y_valid: int,
        tag: str,
    ) -> Tuple[SharePair, int]:
        """secAND2 with ``y1`` delayed to land strictly after x/y0."""
        from ..core.gadgets import secand2_core_on_wires

        last = max(x_valid, y_valid)
        y1 = chain(y.s1, last + 1 - y_valid)
        z = secand2_core_on_wires(
            c, x.s0, x.s1, y.s0, y1, tag, em.secand2_style
        )
        return z, last + 1

    mid = [reg[v] for v in plan.inner_vars]
    term: Dict[int, SharePair] = {}
    valid: Dict[int, int] = {}
    for mask in plan.monomials:
        prefix, extra = plan.factor(mask)
        if prefix in term:
            x, xv = term[prefix], valid[prefix]
        else:
            x, xv = mid[plan.mask_positions(prefix)[0]], 1
        raw, v = gadget(x, mid[extra], xv, 1, f"p{mask:x}")
        term[mask] = em.refreshed("prod", mask, raw, f"ref_p{mask:x}")
        valid[mask] = v
        assert v == schedule.product_valid[mask]

    rows_out: List[List[Optional[SharePair]]] = []
    for row in plan.rows:
        bits: List[Optional[SharePair]] = []
        for b in range(plan.spec.n_outputs):
            if row.bit_is_constant(b):
                bits.append(None)
                continue
            bits.append(em.xor_plane(row, b, mid, term, f"row{row.row}b{b}"))
        rows_out.append(bits)

    if plan.n_select == 0:
        out_pairs = []
        for b, pair in enumerate(rows_out[0]):
            out_pairs.append(
                SharePair(
                    c.dff(pair.s0, name=f"outreg{b}_0"),
                    c.dff(pair.s1, name=f"outreg{b}_1"),
                )
            )
        names = em.mark_outputs(out_pairs)
        c.check()
        return CompiledNetlist(
            plan=plan,
            refresh=refresh_choice,
            style="ff",
            circuit=c,
            n_cycles=schedule.n_cycles,
            schedule=schedule,
            input_shares=tuple(
                (f"x{i}s0", f"x{i}s1") for i in range(plan.spec.n_inputs)
            ),
            rand_names=tuple(em.rand_names),
            output_shares=names,
        )

    # select tree (literal chains share the outer registers' s1 chains)
    outer = [reg[v] for v in plan.select_vars]
    inv_cache: Dict[int, int] = {}

    def literal(p: int, v: int) -> SharePair:
        if v:
            return outer[p]
        if p not in inv_cache:
            inv_cache[p] = c.inv(outer[p].s0, name=f"sel{p}_inv0")
        return SharePair(inv_cache[p], outer[p].s1)

    # same chains and build order as the PD select tree, each node
    # paired with the cycle its shares are valid in
    nodes: Dict[Tuple[int, int], Tuple[SharePair, int]] = {}
    sel_reg: List[SharePair] = []
    for r in range(plan.n_rows):
        x = (literal(0, r >> (plan.n_select - 1)), 1)
        for level in range(2, plan.n_select + 1):
            v = r >> (plan.n_select - level)
            if (level, v) not in nodes:
                (xs, xv), y = x, literal(level - 1, v & 1)
                nodes[(level, v)] = gadget(xs, y, xv, 1, f"sel{level}_{v:x}")
            x = nodes[(level, v)]
        sel, sv = x
        assert sv == plan.n_select
        sel = em.refreshed("sel", r, sel, f"ref_sel{r}")
        sel_reg.append(
            SharePair(
                c.dff(sel.s0, name=f"selreg{r}_0"),
                c.dff(sel.s1, name=f"selreg{r}_1"),
            )
        )
    sel_valid = schedule.select_valid

    out_terms: List[List[Tuple[SharePair, int]]] = [
        [] for _ in range(plan.spec.n_outputs)
    ]
    for r, row in enumerate(plan.rows):
        for b in range(plan.spec.n_outputs):
            if row.bit_is_constant(b):
                if row.constants[b]:
                    out_terms[b].append((sel_reg[r], sel_valid))
                continue
            rv = schedule.row_valid[r][b]
            z, zv = gadget(
                sel_reg[r], rows_out[r][b], sel_valid, rv, f"m2_{r}b{b}"
            )
            out_terms[b].append((z, zv))

    out_pairs = []
    for b, terms in enumerate(out_terms):
        pair = SharePair(
            c.xor_tree([t.s0 for t, _ in terms], name=f"out{b}_s0"),
            c.xor_tree([t.s1 for t, _ in terms], name=f"out{b}_s1"),
        )
        out_pairs.append(
            SharePair(
                c.dff(pair.s0, name=f"outreg{b}_0"),
                c.dff(pair.s1, name=f"outreg{b}_1"),
            )
        )
    names = em.mark_outputs(out_pairs)
    c.check()
    return CompiledNetlist(
        plan=plan,
        refresh=refresh_choice,
        style="ff",
        circuit=c,
        n_cycles=schedule.n_cycles,
        schedule=schedule,
        input_shares=tuple(
            (f"x{i}s0", f"x{i}s1") for i in range(plan.spec.n_inputs)
        ),
        rand_names=tuple(em.rand_names),
        output_shares=names,
    )
