"""Necessary-condition pipeline for compact-control representations.

A compact-control representation forces the Lagrangian to stay bounded on
its effective domain: l(t,x,a) >= L(t,x,f(t,x,a)) pointwise, the convex
combinations over a simplex product turn any representation into one whose
f-image is convex, and the sup of the convexified running cost certifies a
bound lambda(t,x) >= L(t,x,v) on dom L. When no such bound exists, interior
sups of L diverge as the domain margin shrinks; detect_blc_failure reports
that divergence as a verdict rather than a failure.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .builder import induced_H  # noqa: F401  (part of this module's API)
from .builder import ControlSet, RepresentationTriple, lagrangian_access
from .errors import ConfigError, NoncompactControl
from .fenchel import UniformGrid
from .report import CheckReport
from .sampling import SamplePlan
from .zoo import HamiltonianSpec, LambdaBound, domain_evaluator, lagrangian_evaluator

SIMPLEX_DENOM = 8


def simplex_weights(denom: int = SIMPLEX_DENOM) -> np.ndarray:
    """Barycentric grid on the 1-simplex: (j/denom, 1 - j/denom)."""
    a = np.arange(denom + 1) / denom
    return np.stack([a, 1.0 - a], axis=1)


@dataclasses.dataclass
class ConvexifiedTriple:
    """Two-atom convex combinations of a compact-control representation.

    Controls are packed rows (a, b, alpha_1, alpha_2) over A^2 x simplex,
    and e_eval follows the RepresentationTriple contract: a packed row
    gives (2,), an (N, 2q + 2) stack gives (N, 2). A stack takes one base
    e_eval call on the a-rows stacked over the b-rows, combined exactly as
    alpha_1 e(a) + alpha_2 e(b).
    """

    base: RepresentationTriple
    control: ControlSet
    e_eval: Callable
    control_samples: Callable
    weights: np.ndarray

    def view(self) -> RepresentationTriple:
        return RepresentationTriple(
            control=self.control,
            e_eval=self.e_eval,
            provenance="convexified",
            source=self.base.source,
            caps=self.base.caps,
            scaling=self.base.scaling,
            control_samples=self.control_samples,
            grid_h=self.base.grid_h,
        )


def convexify(
    triple: RepresentationTriple | ConvexifiedTriple,
    n_cross: int = 16,
    denom: int = SIMPLEX_DENOM,
) -> ConvexifiedTriple:
    """Convex-combination closure of a compact-control triple.

    The sampled plan pairs each base atom with itself (weight (1,0)) and a
    strided subset of atoms with every simplex weight, so the diagonal
    reproduces the base sup exactly and the cross pairs fill the image hull.
    """
    base = triple.view() if isinstance(triple, ConvexifiedTriple) else triple
    if base.control.kind == "full_space":
        raise NoncompactControl("convexify needs a compact control set")
    q = base.control.dim
    weights = simplex_weights(denom)

    def e_eval(t, x, packed):
        packed = np.asarray(packed, dtype=float)
        if packed.ndim > 2 or packed.shape[-1:] != (2 * q + 2,):
            raise ConfigError(f"packed controls are ({2 * q + 2},)-rows (a, b, alpha_1, alpha_2)")
        rows = packed.reshape(-1, 2 * q + 2)
        n = len(rows)
        E = np.asarray(base.e_eval(t, x, np.concatenate([rows[:, :q], rows[:, q : 2 * q]])), dtype=float)
        e = rows[:, 2 * q, None] * E[:n] + rows[:, 2 * q + 1, None] * E[n:]
        return e.reshape(packed.shape[:-1] + (2,))

    def control_samples(t, x):
        S = np.atleast_2d(np.asarray(base.default_samples(t, x), dtype=float))
        n = len(S)
        diag = np.concatenate(
            [S, S, np.broadcast_to([1.0, 0.0], (n, 2))], axis=1
        )
        idx = np.arange(0, n, max(1, -(-n // n_cross)))
        # rows ordered by (i, j, weight), i outermost
        m, k = len(idx), len(weights)
        i = np.repeat(idx, m * k)
        j = np.tile(np.repeat(idx, k), m)
        cross = np.concatenate([S[i], S[j], np.tile(weights, (m * m, 1))], axis=1)
        return np.concatenate([diag, cross], axis=0)

    control = ControlSet("finite", 2 * q + 2, points=control_samples(0.0, 0.0))
    return ConvexifiedTriple(
        base=base,
        control=control,
        e_eval=e_eval,
        control_samples=control_samples,
        weights=weights,
    )


def lemma41_check(
    triple: RepresentationTriple | ConvexifiedTriple,
    L_source: Callable | None = None,
    plan: SamplePlan | None = None,
    t_range: tuple[float, float] = (0.0, 1.0),
    x_range: tuple[float, float] = (-1.0, 1.0),
    a_limit: int = 256,
    tol: float = 2e-2,
) -> CheckReport:
    """Epigraph bound of any representation: L(t,x,f(t,x,a)) <= l(t,x,a).

    L_source overrides the Lagrangian access ((t,x) -> vectorized slice);
    by default the source Hamiltonian's oracle or numeric conjugate is used.
    Values of f outside dom L count as +inf violations.
    """
    tri = triple.view() if isinstance(triple, ConvexifiedTriple) else triple
    if tri.control.kind == "full_space":
        raise NoncompactControl("lemma41_check applies to compact control sets")
    plan = plan or SamplePlan()
    L_of = L_source if L_source is not None else lagrangian_access(tri)
    rng = plan.rng(41)
    worst, wit = -np.inf, []
    for _ in range(6):
        t = float(rng.uniform(*t_range))
        x = float(rng.uniform(*x_range))
        _, F, Lv = tri.e_table(t, x)
        if len(F) > a_limit:
            idx = np.linspace(0, len(F) - 1, a_limit).astype(int)
            F, Lv = F[idx], Lv[idx]
        vals = L_of(t, x)(F)
        viol = np.where(np.isfinite(vals), vals - Lv, np.inf)
        m = float(np.max(viol))
        if m > worst:
            j = int(np.argmax(viol))
            worst, wit = m, [{"t": t, "x": x, "f": float(F[j]), "l": float(Lv[j])}]
    return CheckReport(
        "lemma41_epigraph_bound", worst, "pass" if worst <= tol else "fail", wit
    )


def extract_lambda(
    ct: ConvexifiedTriple,
    plan: SamplePlan | None = None,
    t_range: tuple[float, float] = (0.0, 1.0),
    x_range: tuple[float, float] = (-1.0, 1.0),
    tol: float = 2e-2,
    n_dom: int = 401,
) -> LambdaBound:
    """Candidate Lagrangian bound lambda(t,x) = max of the convexified
    running cost over the sampled control plan.

    The returned bound carries a certification report: sampled L(t,x,v)
    stays below lambda(t,x) + tol across dom L, plus an empirical Lipschitz
    estimate of lambda in x.
    """
    tri = ct.view()
    cache: dict[tuple[float, float], float] = {}

    def lam(t, x):
        key = (float(t), float(x))
        if key not in cache:
            _, _, Lv = tri.e_table(t, x)
            cache[key] = float(np.max(Lv))
        return cache[key]

    plan = plan or SamplePlan()
    rng = plan.rng(33)
    spec = tri.source
    L_of = lagrangian_access(tri)
    dom_of = domain_evaluator(spec) if spec is not None else None
    worst, wit = -np.inf, []
    for _ in range(6):
        t = float(rng.uniform(*t_range))
        x = float(rng.uniform(*x_range))
        bound = lam(t, x)
        if dom_of is not None:
            dom = dom_of(t, x)
            vs = np.linspace(dom.lo, dom.hi, n_dom)
            if not dom.lo_closed:
                vs = vs[1:]
            if not dom.hi_closed:
                vs = vs[:-1]
        else:
            _, F, _ = tri.e_table(t, x)
            vs = np.linspace(float(np.min(F)), float(np.max(F)), n_dom)
        vals = L_of(t, x)(vs)
        vals = vals[np.isfinite(vals)]
        if len(vals) == 0:
            continue
        m = float(np.max(vals)) - bound
        if m > worst:
            worst, wit = m, [{"t": t, "x": x, "lambda": bound, "sup_L": float(np.max(vals))}]
    cert = CheckReport(
        "blc_certificate", worst, "pass" if worst <= tol else "fail", wit
    )

    slopes = []
    for _ in range(12):
        t = float(rng.uniform(*t_range))
        x = float(rng.uniform(*x_range))
        y = float(rng.uniform(*x_range))
        if abs(x - y) > 1e-6:
            slopes.append(abs(lam(t, x) - lam(t, y)) / abs(x - y))
    slope = max(slopes) if slopes else 0.0
    return LambdaBound(
        eval=lam,
        w_R=None,
        note=f"sampled max of convexified running cost; empirical x-Lipschitz <= {slope:.3g}",
        certification=cert,
    )


VERDICT_VIOLATED = "BLC violated (diverging interior sup)"
VERDICT_BOUNDED = "bounded, candidate lambda found"


def detect_blc_failure(
    spec: HamiltonianSpec,
    t_range: tuple[float, float] = (0.0, 1.0),
    x_range: tuple[float, float] = (-1.0, 1.0),
    margins: tuple[float, ...] = (1e-1, 1e-2, 1e-3),
    threshold: float = 1e3,
    plan: SamplePlan | None = None,
    n_v: int = 2001,
    p_grid: UniformGrid | None = None,
) -> CheckReport:
    """Interior-sup ladder for Lagrangian boundedness on the domain.

    For each margin delta, the domain of every sampled slice is shrunk by
    delta at both ends and sup L is taken over it. Divergence (final sup
    past the threshold, or sup growth of 8x per rung ending above half the
    threshold) yields the violated verdict; otherwise the final sups double
    as a candidate lambda. Both verdicts are findings, not failures.
    Numeric slices sample H on p_grid.
    """
    plan = plan or SamplePlan()
    rng = plan.rng(101)
    use_oracle = spec.oracle_L is not None and spec.oracle_dom is not None
    L_ev = lagrangian_evaluator(spec, use_oracle=use_oracle, p_grid=p_grid)
    dom_ev = domain_evaluator(spec, use_oracle=use_oracle, p_grid=p_grid)
    slabs = [
        (float(t), float(x))
        for t, x in zip(rng.uniform(*t_range, 8), rng.uniform(*x_range, 8))
    ]
    sups = []
    for delta in margins:
        # the sups per slab at the final margin double as the candidate lambda
        sup_d, candidates = -np.inf, []
        for t, x in slabs:
            dom = dom_ev(t, x)
            lo, hi = dom.lo + delta, dom.hi - delta
            if hi <= lo:
                continue
            vals = np.asarray(L_ev(t, x, np.linspace(lo, hi, n_v)), dtype=float)
            vals = vals[np.isfinite(vals)]
            if len(vals):
                sup_d = max(sup_d, float(np.max(vals)))
                candidates.append({"t": t, "x": x, "sup_L": float(np.max(vals))})
        sups.append(sup_d)
    ratios = [
        sups[i + 1] / max(sups[i], 1e-12)
        for i in range(len(sups) - 1)
        if np.isfinite(sups[i + 1]) and sups[i] > 0
    ]
    diverging = sups[-1] > threshold or (
        len(ratios) == len(sups) - 1
        and all(r >= 8.0 for r in ratios)
        and sups[-1] >= 0.5 * threshold
    )
    verdict = VERDICT_VIOLATED if diverging else VERDICT_BOUNDED
    wit = [{"margin": float(m), "sup": float(s)} for m, s in zip(margins, sups)]
    if not diverging:
        wit.append({"candidate_lambda": candidates})
    return CheckReport("blc_failure_probe", float(sups[-1]), verdict, wit)
