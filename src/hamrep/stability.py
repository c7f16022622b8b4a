"""Stability diagnostics for representations under Hamiltonian perturbations.

A perturbation family H_i = H + perturb(i, .) induces Lagrangian slices
L_i and representations e_i built with identical grids and seeds. The
diagnostics measure, per index: set-limit behavior of the epigraphs via
distance probes, uniform e_i -> e errors over fixed sample plans, and the
Steiner-composition bound |e_i - e| <= 5(n+1) [H(E_i, E) + |M_i - M| |a|]
pointwise. Decay is judged by the ratio of the final to the first index.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, ClassVar

import numpy as np

from . import convex_geom as cg
from .builder import (
    APlan,
    GridPolicy,
    RepresentationTriple,
    Window,
    build,
    lagrangian_access,
)
from .errors import HypothesisViolation
from .fenchel import build_epigraph
from .report import TOLERANCES, CheckReport, Worst
from .sampling import SamplePlan
from .zoo import HamiltonianSpec, LambdaBound, builtin

DEFAULT_INDICES = (4, 16, 64)


@dataclasses.dataclass(frozen=True)
class PerturbationFamily:
    """H_i := base + perturb(i, t, x, p) for the increasing index set
    `indices`.

    perturb receives the p-array of the evaluation and returns a scalar or
    array; it must keep every H_i finite and convex in p on the probed
    window (checked by validate). lam_per_index(i), when given, is member
    i's bound lambda, which a compact build reads from the member spec;
    otherwise each member keeps the base's bound.
    """

    name: str
    base: HamiltonianSpec
    perturb: Callable  # (i, t, x, p-array) -> scalar or array
    lam_per_index: Callable | None = None  # i -> LambdaBound
    indices: ClassVar[tuple[int, ...]] = DEFAULT_INDICES

    def spec_for(self, i: int) -> HamiltonianSpec:
        base = self.base
        pert = self.perturb

        def ev(t, x, p, _i=i):
            p = np.asarray(p, dtype=float)
            return np.asarray(base.eval(t, x, p), dtype=float) + pert(_i, t, x, p)

        return dataclasses.replace(
            base,
            name=f"{base.name}+i{i}",
            eval=ev,
            oracle_L=None,
            oracle_dom=None,
            lambda_bound=base.lambda_bound if self.lam_per_index is None else self.lam_per_index(i),
            notes=f"perturbed member {i} of family {self.name}",
        )

    def limit_spec(self) -> HamiltonianSpec:
        """Unperturbed base, stripped of oracles so the limit representation
        runs through the same numeric pipeline as the perturbed members."""
        return dataclasses.replace(
            self.base,
            name=f"{self.base.name}+limit",
            oracle_L=None,
            oracle_dom=None,
            notes=f"limit member of family {self.name}",
        )

    def validate(
        self,
        p_range: tuple[float, float] = Window.p_range,
        plan: SamplePlan | None = None,
    ) -> CheckReport:
        """Sampled midpoint-convexity and finiteness probe of every H_i; a
        relative midpoint gap above 1e-9 fails."""
        plan = plan or SamplePlan()
        rng = plan.rng(61)
        worst = Worst("family_convexity_probe")
        for i in self.indices:
            spec = self.spec_for(i)
            for _ in range(40):
                t = float(rng.uniform(*self.base.t_range))
                x = float(rng.uniform(*Window.x_range))
                p, q = rng.uniform(*p_range, 2)
                vals = np.asarray(
                    spec.eval(t, x, np.array([p, q, 0.5 * (p + q)])), dtype=float
                )
                if not np.all(np.isfinite(vals)):
                    raise HypothesisViolation(f"H_{i} not finite at t={t}, x={x}")
                scale = max(1.0, float(np.max(np.abs(vals))))
                gap = float(vals[2] - 0.5 * (vals[0] + vals[1])) / scale
                worst.see(gap, {"i": i, "t": t, "x": x, "p": p, "q": q})
        return worst.report(1e-9)


def _ex_2_2_lambda(name: str) -> PerturbationFamily:
    return PerturbationFamily(
        name,
        builtin("ex_2_2"),
        lambda i, t, x, p: 0.0,
        lam_per_index=lambda i: LambdaBound(eval=lambda t, x: abs(x) + 1.0 / i),
    )


# the perturbation families of the stability suites, in listing order
_FAMILIES: dict[str, Callable[[str], PerturbationFamily]] = {
    "ex_2_2_cos": lambda name: PerturbationFamily(
        name, builtin("ex_2_2"), lambda i, t, x, p: (1.0 / i) * np.cos(p)
    ),
    "ex_2_2_normalized": lambda name: PerturbationFamily(
        name, builtin("ex_2_2"), lambda i, t, x, p: (0.1 / i) * (1.0 + np.abs(p))
    ),
    "ex_2_1_sinx": lambda name: PerturbationFamily(
        name, builtin("ex_2_1"), lambda i, t, x, p: (1.0 / i) * np.sin(x)
    ),
    "ex_2_6_absx": lambda name: PerturbationFamily(
        name, builtin("ex_2_6"), lambda i, t, x, p: (1.0 / i) * abs(x)
    ),
    "ex_2_2_zero": lambda name: PerturbationFamily(name, builtin("ex_2_2"), lambda i, t, x, p: 0.0),
    "ex_2_2_lambda": _ex_2_2_lambda,
}


def named_family(name: str) -> PerturbationFamily:
    """The named perturbation family; KeyError for an unknown name."""
    try:
        factory = _FAMILIES[name]
    except KeyError:
        raise KeyError(f"unknown perturbation family {name!r}") from None
    return factory(name)


def family_names() -> list[str]:
    return list(_FAMILIES)


@dataclasses.dataclass(frozen=True)
class IndexRow:
    i: int
    sup_e_err: float
    sup_f_err: float
    sup_l_err: float
    sup_hausdorff_EL: float
    bound_margin: float


@dataclasses.dataclass
class StabilityReport:
    family: str
    kind: str
    rows: list[IndexRow]

    def decay_report(self, ratio: float = TOLERANCES["decay_ratio"]) -> CheckReport:
        rows = sorted(self.rows, key=lambda r: r.i)
        first, last = rows[0].sup_e_err, rows[-1].sup_e_err
        ok = last <= ratio * first if first > 0 else last == 0.0
        wit = [
            {"i": r.i, "sup_e_err": r.sup_e_err, "sup_hausdorff_EL": r.sup_hausdorff_EL}
            for r in rows
        ]
        return CheckReport(
            f"stability_decay[{self.family}]",
            float(last - ratio * first),
            "pass" if ok else "fail",
            wit,
        )

    def bound_report(self) -> CheckReport:
        worst = Worst(f"steiner_composition_bound[{self.family}]")
        worst.see(np.array([r.bound_margin for r in self.rows]))
        wit = [{"i": r.i, "bound_margin": r.bound_margin} for r in self.rows]
        return dataclasses.replace(worst.report(0.0), witnesses=wit)


def _stability_a_plan(kind: str) -> APlan:
    # coarse fixed plans: errors compare e_i and e at identical controls
    if kind == "compact":
        return APlan(n_radii=4, n_angles=12)
    return APlan(n_box=9)


def _slabs(window: Window, plan: SamplePlan, n: int, fixed_t: float | None):
    rng = plan.rng(83)
    ts = rng.uniform(*window.t_range, n) if fixed_t is None else np.full(n, fixed_t)
    xs = rng.uniform(*window.x_range, n)
    return [(float(t), float(x)) for t, x in zip(ts, xs)]


def _common_cap_hausdorff(tri: RepresentationTriple, limit: RepresentationTriple, t: float, x: float) -> float:
    fi, f0 = lagrangian_access(tri)(t, x), lagrangian_access(limit)(t, x)
    cap = max(fi.min_value(), f0.min_value()) + 5.0
    Ei = build_epigraph(fi, cap)
    E0 = build_epigraph(f0, cap)
    return float(cg.hausdorff(Ei, E0))


def representation_convergence(
    family: PerturbationFamily,
    kind: str = "noncompact",
    window: Window | None = None,
    plan: SamplePlan | None = None,
    grids: GridPolicy | None = None,
    n_slabs: int = 3,
    bound_slack: float = TOLERANCES["bound_slack"],
    fixed_t: float | None = None,
) -> StabilityReport:
    """Uniform-convergence audit e_i -> e over a fixed (t, x, a) sample plan.

    All members and the limit are built on identical grids, so a
    zero perturbation reproduces the limit bit for bit. Each row also
    carries the worst margin of the Steiner-composition bound
    |e_i - e| <= 5(n+1) [H(E_i, E) + |M_i - M| |a|] + bound_slack.
    """
    if n_slabs < 1:
        raise ValueError("representation_convergence judges nothing without a slab")
    window = window or Window()
    plan = plan or SamplePlan()
    probe = family.validate(window.p_range, plan)
    if not probe.passed:
        raise HypothesisViolation(f"family {family.name}: convexity probe failed")
    slabs = _slabs(window, plan, n_slabs, fixed_t)
    a_plan = _stability_a_plan(kind)
    n1 = family.base.n + 1

    limit = build(kind, family.limit_spec(), grids)
    a_samples = limit.control.samples(a_plan)
    norms = np.linalg.norm(a_samples, axis=1)

    def measure(i: int) -> IndexRow:
        tri = build(kind, family.spec_for(i), grids)
        sups = []  # per slab: sup |e_i - e|, |f_i - f|, |l_i - l|, H(E_i, E)
        bound = Worst("steiner_composition_bound")
        for t, x in slabs:
            F_i, L_i = tri.e_eval(t, x, a_samples).T
            F_0, L_0 = limit.e_eval(t, x, a_samples).T
            e_err = np.hypot(F_i - F_0, L_i - L_0)
            hd = _common_cap_hausdorff(tri, limit, t, x)
            dF, dL = np.abs(F_i - F_0), np.abs(L_i - L_0)
            sups.append((float(np.max(e_err)), float(np.max(dF)), float(np.max(dL)), hd))
            dM = abs(tri.scaling(t, x) - limit.scaling(t, x))
            bound.see(float(np.max(e_err - (5.0 * n1 * (hd + dM * norms) + bound_slack))))
        return IndexRow(i, *(max(col) for col in zip(*sups)), bound.margin)

    return StabilityReport(
        family=family.name,
        kind=kind,
        rows=sorted((measure(i) for i in family.indices), key=lambda r: r.i),
    )


def epigraph_limit_check(
    family: PerturbationFamily,
    window: Window | None = None,
    plan: SamplePlan | None = None,
    grids: GridPolicy | None = None,
    abs_tol: float = TOLERANCES["epigraph_abs"],
    ratio: float = TOLERANCES["decay_ratio"],
) -> CheckReport:
    """Set-limit diagnostic: along (t_i, x_i) -> (t, x), the distances
    d(y, E_{L_i}(t_i, x_i)) approach d(y, E_L(t, x)) for five seeded probe
    points y. Each L_i is the trusted v-grid slice of the member's own
    slices on grids, as a noncompact build samples it. Pass
    iff the final-index error is both <= ratio times the first-index error
    and <= abs_tol."""
    window = window or Window()
    plan = plan or SamplePlan()
    rng = plan.rng(97)
    t_lo, t_hi = window.t_range
    x_lo, x_hi = window.x_range
    t_star = 0.5 * (t_lo + t_hi)
    x_star = float(rng.uniform(0.5 * x_lo, 0.5 * x_hi))
    dt, dx = 0.3 * (t_hi - t_star), 0.3 * (x_hi - x_star)

    def slice_of(spec, t, x):
        return spec.slices(grids).on_grid(t, x)

    f0 = slice_of(family.limit_spec(), t_star, x_star)
    lmin = f0.min_value()
    probes = np.stack(
        [rng.uniform(-2.0, 2.0, 5), rng.uniform(lmin - 1.0, lmin + 4.0, 5)],
        axis=1,
    )

    slices = {i: slice_of(family.spec_for(i), t_star + dt / i, x_star + dx / i) for i in family.indices}
    cap = max([f0.min_value()] + [s.min_value() for s in slices.values()]) + 5.0
    E0 = build_epigraph(f0, cap)
    d0 = cg.distance(probes, E0)

    errs, wit = [], []
    for i in family.indices:
        Ei = build_epigraph(slices[i], cap)
        di = cg.distance(probes, Ei)
        err = float(np.max(np.abs(di - d0)))
        errs.append(err)
        wit.append(
            {
                "i": i,
                "worst_distance_err": err,
                "hausdorff": float(cg.hausdorff(Ei, E0)),
            }
        )
    ok = errs[-1] <= max(ratio * errs[0], 0.0) and errs[-1] <= abs_tol
    if errs[0] == 0.0:
        ok = errs[-1] == 0.0
    return CheckReport(
        f"epigraph_limit[{family.name}]",
        float(errs[-1]),
        "pass" if ok else "fail",
        wit,
    )
