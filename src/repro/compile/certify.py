"""Pass 4: the certification pipeline.

A compiled netlist is *certified*, not trusted: every claim the
compiler makes is re-checked by the repo's independent analysis
engines, strongest evidence first.

1. **Functional** — the netlist, driven share-accurately through
   :class:`~repro.sim.clocking.ClockedHarness`, recombines to the spec
   table on *every* input under multiple random sharings, and its
   output shares equal the :class:`~repro.compile.model.PlanModel`
   golden shares bit-for-bit.
2. **Static safety** — :func:`repro.netlist.safety.check_secand2_ordering`
   over the real :mod:`repro.netlist.timing` arrival times (PD style),
   or a valid-cycle dynamic program proving every gadget's ``y1`` is a
   registered value landing strictly after its other operands (FF
   style).
3. **Exact verification** — the glitch-extended probing verifier
   (:func:`repro.verify.report.verify`).  The default ``"sites"`` mode
   groups the netlist's secAND2 cores by their *normalised arrival
   pattern* and verifies one standalone core per pattern — the
   gadget-by-gadget composition argument the paper itself makes
   (Sec. IV).  ``"whole"`` mode runs the verifier on the entire
   netlist; note that even the paper's hand-built compositions fail
   this strictly stronger check (see the ``pchain3_pd`` preset: chained
   gadgets exhibit a from-reset transient bias that is invisible to
   first-order TVLA on power but visible to per-wire exact probes), so
   it is only expected to pass for single-gadget netlists.  A site
   verdict depends on its arrival tuple alone, so each tuple (and the
   FF style's one preset) is proved once per process and reused.
4. **Uniformity audit** — the refresh choice's empirical share-
   distribution defect stays within a factor of the full-refresh floor.
5. **TVLA spot-check** (optional) — a sampled fixed-vs-random campaign
   over the whole netlist must show no first-order t-peak.

The certificate also carries a cost report (GE / FF / LUT / fresh
randomness / latency / fmax) built from :mod:`repro.netlist.area` and
:mod:`repro.netlist.timing` — the Table III quantities.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..core.gadgets import secand2_core_on_wires
from ..netlist import area as area_mod
from ..netlist import timing as timing_mod
from ..netlist.circuit import Circuit
from ..netlist.safety import check_secand2_ordering, ordering_margins
from ..netlist.timing import arrival_times
from ..obs import metrics as obs_metrics
from ..obs.trace import trace
from ..verify.probes import MAX_INPUT_BITS, GadgetSpec
from ..verify.report import LeakingProbe, VerificationResult, verify
from .emit import CompiledNetlist
from .lower import CompileError
from .model import PlanModel, uniformity_defect

__all__ = [
    "CostReport",
    "SiteClass",
    "Certificate",
    "site_spec_for_arrivals",
    "site_classes",
    "certify_netlist",
]

EXACT_MODES = ("sites", "whole", "none")


# ----------------------------------------------------------------------
# cost report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CostReport:
    """Table III-style cost summary of one compiled netlist."""

    name: str
    style: str
    area_ge: float
    area_ge_no_delay: float
    n_ff: int
    n_lut: int
    n_lut_delay: int
    n_secand2: int
    fresh_bits: int
    n_cycles: int
    critical_path_ps: int
    max_freq_mhz: float

    @classmethod
    def from_netlist(cls, netlist: CompiledNetlist) -> "CostReport":
        util = area_mod.report(netlist.circuit)
        t = timing_mod.analyze(netlist.circuit)
        return cls(
            name=netlist.plan.spec.name,
            style=netlist.style,
            area_ge=util.area_ge,
            area_ge_no_delay=util.area_ge_no_delay,
            n_ff=util.n_ff,
            n_lut=util.n_lut,
            n_lut_delay=util.n_lut_delay,
            n_secand2=netlist.n_secand2,
            fresh_bits=netlist.fresh_bits,
            n_cycles=netlist.n_cycles,
            critical_path_ps=t.critical_path_ps,
            max_freq_mhz=t.max_freq_mhz,
        )

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "style": self.style,
            "area_ge": round(self.area_ge, 1),
            "area_ge_no_delay": round(self.area_ge_no_delay, 1),
            "n_ff": self.n_ff,
            "n_lut": self.n_lut,
            "n_lut_delay": self.n_lut_delay,
            "n_secand2": self.n_secand2,
            "fresh_bits": self.fresh_bits,
            "n_cycles": self.n_cycles,
            "critical_path_ps": self.critical_path_ps,
            "max_freq_mhz": round(self.max_freq_mhz, 1),
        }

    def row(self) -> str:
        return (
            f"{self.name:<16} {self.style:<3} "
            f"{self.area_ge:>8.0f} GE  {self.n_ff:>4} FF {self.n_lut:>5} LUT  "
            f"{self.n_secand2:>3} secAND2  {self.fresh_bits:>3} rand  "
            f"{self.n_cycles} cyc  {self.max_freq_mhz:>6.1f} MHz"
        )


# ----------------------------------------------------------------------
# per-site exact verification
# ----------------------------------------------------------------------
@dataclass
class SiteClass:
    """One equivalence class of secAND2 cores by arrival pattern.

    ``arrivals`` is the normalised ``(x0, x1, y0, y1)`` arrival tuple
    (ps, minimum subtracted); every core in the netlist whose operands
    arrive in this pattern shares the verification verdict of the
    standalone core driven with exactly these offsets.
    """

    arrivals: Tuple[int, int, int, int]
    tags: Tuple[str, ...]
    result: Optional[VerificationResult] = None

    @property
    def n_sites(self) -> int:
        return len(self.tags)

    @property
    def secure(self) -> Optional[bool]:
        return None if self.result is None else self.result.secure

    def to_json_dict(self) -> dict:
        return {
            "arrivals_ps": list(self.arrivals),
            "n_sites": self.n_sites,
            "example_tags": list(self.tags[:4]),
            "secure": self.secure,
            "n_leaking": 0 if self.result is None else self.result.n_leaking,
            "elapsed_s": 0.0 if self.result is None else self.result.elapsed_s,
        }


def site_spec_for_arrivals(
    arrivals: Tuple[int, int, int, int],
    name: str = "site",
    secand2_style: str = "lut",
) -> GadgetSpec:
    """A standalone secAND2 core driven with the given arrival offsets.

    This is the canonical object the compositional argument verifies:
    if the core is exactly secure under this arrival pattern, every
    in-netlist instance whose operands settle in the same pattern
    inherits the verdict (the glitch-extended probe of any wire in the
    core's cone sees the same transition structure).
    """
    c = Circuit(f"site_{name}")
    x0, x1, y0, y1 = (c.add_input(n) for n in ("x0", "x1", "y0", "y1"))
    z = secand2_core_on_wires(c, x0, x1, y0, y1, "site", secand2_style)
    c.mark_output("z0", z.s0)
    c.mark_output("z1", z.s1)
    c.check()
    spec = GadgetSpec(
        name=name,
        circuit=c,
        secrets=(("x", ("x0", "x1")), ("y", ("y0", "y1"))),
        schedule=tuple(zip(("x0", "x1", "y0", "y1"), arrivals)),
        n_cycles=1,
    )
    spec.validate()
    return spec


def site_classes(netlist: CompiledNetlist) -> List[SiteClass]:
    """Group the netlist's secAND2 cores by normalised arrival tuple."""
    c = netlist.circuit
    at = arrival_times(c)
    groups: Dict[Tuple[int, int, int, int], List[str]] = {}
    for g in c.annotations.get("secand2", []):
        arr = [at[g[pin]] for pin in ("x0", "x1", "y0", "y1")]
        lo = min(arr)
        key = tuple(int(round(a - lo)) for a in arr)
        groups.setdefault(key, []).append(g["tag"])
    return [
        SiteClass(arrivals=key, tags=tuple(tags))
        for key, tags in sorted(groups.items())
    ]


#: Exact proofs already run in this process: the verdict of
#: ``site_spec_for_arrivals(arrivals)`` keyed by its arrival tuple, and
#: the ``secand2_ff`` preset's under that name.  Neither spec has any
#: other input, so a proof holds for every later netlist.  Bounded,
#: oldest proof out first.
_PROOFS: "OrderedDict[Hashable, VerificationResult]" = OrderedDict()
_PROOFS_CAPACITY = 256


def _proof(
    key: Hashable, name: str, build_spec: Callable[[], GadgetSpec]
) -> VerificationResult:
    """``verify(build_spec())``, run once per ``key`` and process.

    A reused proof is a copy named ``name`` with its own ``leaks`` list
    and ``elapsed_s = 0.0``.
    """
    proved = _PROOFS.get(key)
    if proved is not None:
        obs_metrics.inc("certify.proof_hits")
        return replace(
            proved, gadget=name, leaks=list(proved.leaks), elapsed_s=0.0
        )
    obs_metrics.inc("certify.proofs")
    result = verify(build_spec())
    _PROOFS[key] = replace(result, leaks=list(result.leaks))
    if len(_PROOFS) > _PROOFS_CAPACITY:
        _PROOFS.popitem(last=False)
    return result


# ----------------------------------------------------------------------
# FF valid-cycle layering check
# ----------------------------------------------------------------------
def _valid_cycles(c: Circuit) -> Dict[int, int]:
    """Valid-from cycle of every wire: inputs 0, DFF = D + 1, comb = max.

    The emitted pipelines are acyclic through their registers, so a
    bounded relaxation converges; a residual change after the bound
    means a register feedback loop, which the compiler never emits.
    """
    valid = {w: 0 for w in c.inputs}
    for g in c.gates:
        valid.setdefault(g.output, 0)
    for _ in range(len(c.gates) + 1):
        changed = False
        for g in c.gates:
            if g.is_ff:
                v = valid.get(g.inputs[0], 0) + 1
            else:
                v = max((valid.get(w, 0) for w in g.inputs), default=0)
            if v > valid[g.output]:
                valid[g.output] = v
                changed = True
        if not changed:
            return valid
    raise CompileError("register feedback loop in emitted netlist")


def _ff_layering(netlist: CompiledNetlist) -> dict:
    """Structural proof obligations of the FF style, per gadget site.

    Every secAND2 core must receive ``y1`` from a DFF output whose
    valid cycle is strictly after all other operands' — then within
    every cycle ``y1`` is the stable, glitch-free, last-settled value
    (the secAND2-FF condition the ``secand2_ff`` verify preset
    certifies at gadget level).
    """
    c = netlist.circuit
    valid = _valid_cycles(c)
    bad: List[str] = []
    for g in c.annotations.get("secand2", []):
        drv = c.driver_of(g["y1"])
        registered = drv is not None and drv.is_ff
        others = max(valid[g[p]] for p in ("x0", "x1", "y0"))
        if not registered or valid[g["y1"]] != others + 1:
            bad.append(g["tag"])
    n = len(c.annotations.get("secand2", []))
    return {
        "checked": True,
        "ok": not bad,
        "n_sites": n,
        "n_bad": len(bad),
        "bad_tags": bad[:8],
    }


# ----------------------------------------------------------------------
# certificate
# ----------------------------------------------------------------------
@dataclass
class Certificate:
    """The full certification verdict of one compiled netlist."""

    name: str
    style: str
    margin_ps: int
    functional: dict
    static: Optional[dict]
    layering: Optional[dict]
    exact_mode: str
    sites: List[SiteClass] = field(default_factory=list)
    #: FF style: gadget-level exact evidence — the canonical
    #: ``secand2_ff`` preset (registered ``y1``, 2 cycles) verified by
    #: the exact verifier; the layering DP extends it to every site.
    gadget_ff: Optional[dict] = None
    whole: Optional[dict] = None
    uniformity: Optional[dict] = None
    tvla: Optional[dict] = None
    cost: Optional[CostReport] = None
    #: First exact counterexample found, if any — VCD-exportable via
    #: :func:`repro.verify.report.counterexample_vcd` with
    #: :attr:`counterexample_spec`.
    counterexample: Optional[LeakingProbe] = None
    counterexample_spec: Optional[GadgetSpec] = None

    @property
    def exact_ok(self) -> bool:
        if self.exact_mode == "none":
            return True
        if self.exact_mode == "whole":
            return bool(self.whole and self.whole["secure"])
        if self.style == "ff":
            return bool(
                self.gadget_ff
                and self.gadget_ff["secure"]
                and self.layering is not None
                and self.layering["ok"]
            )
        return all(s.secure for s in self.sites)

    @property
    def ok(self) -> bool:
        checks = [self.functional["ok"], self.exact_ok]
        if self.static is not None:
            checks.append(self.static["ok"])
        if self.layering is not None:
            checks.append(self.layering["ok"])
        if self.uniformity is not None:
            checks.append(self.uniformity["ok"])
        if self.tvla is not None:
            checks.append(not self.tvla["detected"])
        return all(checks)

    def to_json_dict(self) -> dict:
        return {
            "schema": "compile_certificate/v1",
            "name": self.name,
            "style": self.style,
            "ok": self.ok,
            "requested_margin_ps": self.margin_ps,
            "functional": self.functional,
            "static": self.static,
            "layering": self.layering,
            "exact": {
                "mode": self.exact_mode,
                "ok": self.exact_ok,
                "site_classes": [s.to_json_dict() for s in self.sites],
                "gadget_ff": self.gadget_ff,
                "whole": self.whole,
            },
            "uniformity": self.uniformity,
            "tvla": self.tvla,
            "cost": None if self.cost is None else self.cost.to_json_dict(),
            "counterexample": (
                None
                if self.counterexample is None
                else self.counterexample.to_json_dict()
            ),
        }

    def render(self) -> str:
        mark = lambda ok: "PASS" if ok else "FAIL"  # noqa: E731
        lines = [
            f"{self.name} [{self.style}]: "
            f"{'CERTIFIED' if self.ok else 'REJECTED'}",
            f"  functional   {mark(self.functional['ok'])} "
            f"({self.functional['n_inputs']} inputs x "
            f"{self.functional['n_sharings']} sharings, "
            f"shares {'==' if self.functional['shares_match_model'] else '!='} model)",
        ]
        if self.static is not None:
            lines.append(
                f"  static order {mark(self.static['ok'])} "
                f"({self.static['n_sites']} sites, worst y1 margin "
                f"{self.static['min_y1_margin_ps']:g} ps >= "
                f"{self.static['required_margin_ps']} ps)"
            )
        if self.layering is not None:
            lines.append(
                f"  ff layering  {mark(self.layering['ok'])} "
                f"({self.layering['n_sites']} sites, "
                f"{self.layering['n_bad']} bad)"
            )
        if self.exact_mode == "sites":
            if self.style == "ff":
                lines.append(
                    f"  exact gadget {mark(self.exact_ok)} "
                    "(canonical secand2_ff + layering DP)"
                )
            else:
                n_sites = sum(s.n_sites for s in self.sites)
                lines.append(
                    f"  exact sites  {mark(self.exact_ok)} "
                    f"({n_sites} cores / {len(self.sites)} arrival classes)"
                )
        elif self.exact_mode == "whole":
            lines.append(
                f"  exact whole  {mark(self.exact_ok)} "
                f"({self.whole['n_probes']} probes, "
                f"{self.whole['n_leaking']} leaking)"
            )
        if self.uniformity is not None:
            lines.append(
                f"  uniformity   {mark(self.uniformity['ok'])} "
                f"(defect {self.uniformity['defect']:.4f} <= "
                f"{self.uniformity['threshold']:.4f})"
            )
        if self.tvla is not None:
            lines.append(
                f"  tvla         {mark(not self.tvla['detected'])} "
                f"(max|t1| {self.tvla['max_abs_t1']:.2f} over "
                f"{self.tvla['n_traces']} traces)"
            )
        if self.cost is not None:
            lines.append(f"  cost         {self.cost.row()}")
        if self.counterexample is not None:
            lines.append(f"  counterexample: {self.counterexample.describe()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------
def _check_functional(
    netlist: CompiledNetlist, n_sharings: int, seed: int
) -> dict:
    plan = netlist.plan
    spec = plan.spec
    size = 1 << spec.n_inputs
    n = size * n_sharings
    rng = np.random.default_rng(seed)
    idx = np.tile(np.arange(size, dtype=np.int64), n_sharings)
    bits = np.stack(
        [
            ((idx >> (spec.n_inputs - 1 - i)) & 1).astype(bool)
            for i in range(spec.n_inputs)
        ]
    )
    s1 = rng.integers(0, 2, bits.shape).astype(bool)
    s0 = bits ^ s1
    rand = rng.integers(0, 2, (max(1, netlist.fresh_bits), n)).astype(bool)
    o0, o1 = netlist.run_shares(s0, s1, rand[: max(1, netlist.fresh_bits)])

    got = np.zeros(n, dtype=np.int64)
    for b in range(spec.n_outputs):
        got |= (o0[b] ^ o1[b]).astype(np.int64) << (spec.n_outputs - 1 - b)
    table_ok = bool(np.array_equal(got, np.asarray(spec.table)[idx]))

    # golden-share comparison: spread the netlist's kept random bits
    # into the model's full position-indexed array.
    model = PlanModel(plan)
    model_rand = np.zeros((max(1, model.n_rand), n), dtype=bool)
    kept = [i for i, m in enumerate(netlist.refresh.mask) if m]
    for k, pos_idx in enumerate(kept):
        model_rand[pos_idx] = rand[k]
    m0, m1 = model(s0, s1, model_rand, refresh_mask=netlist.refresh.mask)
    shares_ok = bool(np.array_equal(o0, m0) and np.array_equal(o1, m1))

    return {
        "ok": table_ok and shares_ok,
        "n_inputs": size,
        "n_sharings": n_sharings,
        "recombines": table_ok,
        "shares_match_model": shares_ok,
    }


def _check_static(netlist: CompiledNetlist, margin_ps: int) -> dict:
    margins = ordering_margins(netlist.circuit)
    violations = check_secand2_ordering(
        netlist.circuit, min_margin_ps=margin_ps
    )
    return {
        "checked": True,
        "ok": not violations,
        "n_sites": len(margins),
        "n_violations": len(violations),
        "min_y1_margin_ps": min((m.y1_margin_ps for m in margins), default=0.0),
        "min_y0_margin_ps": min((m.y0_margin_ps for m in margins), default=0.0),
        "required_margin_ps": max(1, int(margin_ps)),
        "violations": [str(v) for v in violations[:8]],
    }


def _check_uniformity(
    netlist: CompiledNetlist, n_per_input: int, seed: int
) -> dict:
    model = PlanModel(netlist.plan)
    defect = uniformity_defect(
        model, netlist.refresh.mask, n_per_input=n_per_input, seed=seed
    )
    floor = uniformity_defect(
        model, (True,) * model.n_rand, n_per_input=n_per_input, seed=seed
    )
    threshold = 2.0 * floor + 1e-4
    return {
        "checked": True,
        "ok": defect <= threshold,
        "defect": defect,
        "floor": floor,
        "threshold": threshold,
        "n_per_input": n_per_input,
    }


def _check_tvla(netlist: CompiledNetlist, n_traces: int, seed: int) -> dict:
    from ..leakage.acquisition import CampaignConfig, detect_leakage_traces
    from ..leakage.tvla import THRESHOLD
    from ..verify.crossval import SpecTraceSource

    source = SpecTraceSource(netlist.gadget_spec())
    config = CampaignConfig(
        n_traces=n_traces,
        batch_size=min(2048, n_traces),
        noise_sigma=0.0,
        seed=seed,
        label=f"compile_{netlist.plan.spec.name}",
        n_workers=1,
    )
    detected_at, result = detect_leakage_traces(source, config, order=1)
    return {
        "checked": True,
        "detected": detected_at is not None,
        "detected_at": detected_at,
        "n_traces": result.n_traces,
        "max_abs_t1": result.max_abs(1),
        "threshold": THRESHOLD,
    }


def certify_netlist(
    netlist: CompiledNetlist,
    margin_ps: int = 50,
    exact: str = "sites",
    n_sharings: int = 2,
    uniformity_n: int = 0,
    tvla_traces: int = 0,
    seed: int = 0,
) -> Certificate:
    """Run the full certification pipeline on a compiled netlist.

    Args:
        margin_ps: Required static ``y1`` ordering margin (PD style).
        exact: ``"sites"`` (default, the compositional per-arrival-class
            argument), ``"whole"`` (entire netlist through the exact
            verifier — expected to fail for multi-gadget compositions,
            see the module docstring), or ``"none"``.
        n_sharings: Random sharings per input in the functional check.
        uniformity_n: Samples per input for the uniformity audit
            (0 = skip; pointless for ``refresh="full"`` netlists).
        tvla_traces: Trace budget for the optional TVLA spot-check
            (0 = skip).
    """
    if exact not in EXACT_MODES:
        raise CompileError(f"exact mode must be one of {EXACT_MODES}, got {exact!r}")

    with trace("certify.functional", spec=netlist.plan.spec.name):
        functional = _check_functional(netlist, n_sharings, seed)
    with trace("certify.static"):
        static = (
            _check_static(netlist, margin_ps)
            if netlist.style == "pd"
            else None
        )
        layering = _ff_layering(netlist) if netlist.style == "ff" else None
    cert = Certificate(
        name=netlist.plan.spec.name,
        style=netlist.style,
        margin_ps=margin_ps,
        functional=functional,
        static=static,
        layering=layering,
        exact_mode=exact,
        cost=CostReport.from_netlist(netlist),
    )

    with trace("certify.exact", mode=exact):
        if exact == "sites" and netlist.style == "ff":
            # one cycle-accurate gadget proof covers every site: the
            # layering DP shows each in-netlist y1 is a registered value
            # landing strictly after the other operands, which is exactly
            # the configuration the canonical preset verifies.
            from ..verify.presets import preset_spec

            result = _proof(
                "secand2_ff", "secand2_ff", partial(preset_spec, "secand2_ff")
            )
            cert.gadget_ff = {
                "secure": result.secure,
                "n_probes": result.n_probes,
                "elapsed_s": result.elapsed_s,
            }
        elif exact == "sites":
            cert.sites = site_classes(netlist)
            for site in cert.sites:
                name = f"{cert.name}_{cert.style}_site_{site.tags[0]}"
                build = partial(site_spec_for_arrivals, site.arrivals, name=name)
                site.result = _proof(site.arrivals, name, build)
                if not site.result.secure and cert.counterexample is None:
                    cert.counterexample = site.result.leaks[0]
                    cert.counterexample_spec = build()
        elif exact == "whole":
            spec = netlist.gadget_spec()
            if spec.n_input_bits > MAX_INPUT_BITS:
                raise CompileError(
                    f"{cert.name}: {spec.n_input_bits} input bits exceed the "
                    f"exact verifier's {MAX_INPUT_BITS}-bit budget; use "
                    'exact="sites"'
                )
            result = verify(spec)
            cert.whole = {
                "secure": result.secure,
                "n_probes": result.n_probes,
                "n_leaking": result.n_leaking,
                "n_assignments": result.n_assignments,
                "elapsed_s": result.elapsed_s,
            }
            if not result.secure:
                cert.counterexample = result.leaks[0]
                cert.counterexample_spec = spec

    if uniformity_n > 0:
        with trace("certify.uniformity", n=uniformity_n):
            cert.uniformity = _check_uniformity(netlist, uniformity_n, seed)
    if tvla_traces > 0:
        with trace("certify.tvla", n_traces=tvla_traces):
            cert.tvla = _check_tvla(netlist, tvla_traces, seed)
    return cert
