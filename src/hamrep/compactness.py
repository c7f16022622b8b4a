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

import numpy as np

from .builder import ControlSet, RepresentationTriple, Window, lagrangian_access
from .errors import ConfigError, NoncompactControl
from .fenchel import GridPolicy
from .report import TOLERANCES, CheckReport, Worst
from .sampling import SamplePlan
from .zoo import HamiltonianSpec, LambdaBound


def simplex_weights() -> np.ndarray:
    """Barycentric grid on the 1-simplex: (j/8, 1 - j/8), j = 0, ..., 8."""
    a = np.arange(9) / 8
    return np.stack([a, 1.0 - a], axis=1)


def convexify(base: RepresentationTriple) -> RepresentationTriple:
    """Convex-combination closure of a compact-control triple: another
    representation of the same H (provenance "convexified").

    Controls are packed rows (a, b, alpha_1, alpha_2) over A^2 x simplex,
    and e(t, x, packed) = alpha_1 e(t, x, a) + alpha_2 e(t, x, b). A stack
    of packed rows takes one base e_eval call on the a-rows stacked over the
    b-rows, with per-row ts and xs stacked the same way. The packed plan
    pairs each atom of the base plan with itself (weight (1,0)) and a
    strided subset of at most 16 atoms with every simplex weight, so the
    diagonal reproduces the base sup exactly and the cross pairs fill the
    image hull. The plan is built once, read-only, from the base plan at
    (t, x) = (0, 0), and is the triple's finite control set at every
    (t, x). The named triples sample the same atoms everywhere; a
    constructed compact base, whose plan carries per-(t, x) lift points,
    contributes its (0, 0) plan at every slab.
    """
    if base.control.kind == "full_space":
        raise NoncompactControl("convexify needs a compact control set")
    q = base.control.dim
    weights = simplex_weights()

    def twice(v):
        return v if np.ndim(v) == 0 else np.tile(np.asarray(v, dtype=float), 2)

    def e_eval(ts, xs, packed):
        packed = np.asarray(packed, dtype=float)
        if packed.ndim > 2 or packed.shape[-1:] != (2 * q + 2,):
            raise ConfigError(f"packed controls are ({2 * q + 2},)-rows (a, b, alpha_1, alpha_2)")
        rows = packed.reshape(-1, 2 * q + 2)
        n = len(rows)
        AB = np.concatenate([rows[:, :q], rows[:, q : 2 * q]])
        E = np.asarray(base.e_eval(twice(ts), twice(xs), AB), dtype=float)
        e = rows[:, 2 * q, None] * E[:n] + rows[:, 2 * q + 1, None] * E[n:]
        return e.reshape(packed.shape[:-1] + (2,))

    S = np.atleast_2d(np.asarray(base.default_samples(0.0, 0.0), dtype=float))
    n = len(S)
    diag = np.concatenate([S, S, np.broadcast_to([1.0, 0.0], (n, 2))], axis=1)
    idx = np.arange(0, n, max(1, -(-n // 16)))
    # rows ordered by (i, j, weight), i outermost
    m, k = len(idx), len(weights)
    i = np.repeat(idx, m * k)
    j = np.tile(np.repeat(idx, k), m)
    cross = np.concatenate([S[i], S[j], np.tile(weights, (m * m, 1))], axis=1)
    plan = np.concatenate([diag, cross], axis=0)
    plan.flags.writeable = False

    return RepresentationTriple(
        control=ControlSet("finite", 2 * q + 2, points=plan),
        e_eval=e_eval,
        provenance="convexified",
        source=base.source,
        scaling=base.scaling,
        grid_h=base.grid_h,
    )


def lemma41_check(
    triple: RepresentationTriple,
    plan: SamplePlan | None = None,
    window: Window | None = None,
    tol: float = TOLERANCES["lemma41"],
) -> CheckReport:
    """Epigraph bound of any representation: L(t,x,f(t,x,a)) <= l(t,x,a),
    on at most 256 evenly strided controls of the plan of each of six
    slabs drawn in window (default `Window()`).

    L comes from `lagrangian_access`: the source Hamiltonian's oracle or
    numeric conjugate. Values of f outside dom L count as +inf violations.
    """
    if triple.control.kind == "full_space":
        raise NoncompactControl("lemma41_check applies to compact control sets")
    plan = plan or SamplePlan()
    window = window or Window()
    L_of = lagrangian_access(triple)
    rng = plan.rng(41)
    worst = Worst("lemma41_epigraph_bound")
    for _ in range(6):
        t = float(rng.uniform(*window.t_range))
        x = float(rng.uniform(*window.x_range))
        _, F, Lv = triple.e_table(t, x)
        if len(F) > 256:
            idx = np.linspace(0, len(F) - 1, 256).astype(int)
            F, Lv = F[idx], Lv[idx]
        vals = L_of(t, x)(F)
        viol = np.where(np.isfinite(vals), vals - Lv, np.inf)
        worst.see(viol, lambda j: {"t": t, "x": x, "f": float(F[j]), "l": float(Lv[j])})
    return worst.report(tol)


def extract_lambda(
    ct: RepresentationTriple,
    plan: SamplePlan | None = None,
    window: Window | None = None,
    tol: float = TOLERANCES["blc"],
) -> LambdaBound:
    """Candidate Lagrangian bound lambda(t,x) = max of the convexified
    running cost over the sampled control plan, read from the triple's
    table of each (t, x). Its slabs are drawn in window (default
    `Window()`).

    The returned bound carries a certification report: sampled L(t,x,v)
    stays below lambda(t,x) + tol at 401 points across dom L, plus an
    empirical Lipschitz estimate of lambda in x. A slab whose dom L is unbounded is not judged,
    and a certificate that judges no slab fails.
    """

    def lam(t, x):
        return float(np.max(ct.e_table(t, x)[2]))

    plan = plan or SamplePlan()
    window = window or Window()
    rng = plan.rng(33)
    L_of = lagrangian_access(ct)
    cert = Worst("blc_certificate")
    for _ in range(6):
        t = float(rng.uniform(*window.t_range))
        x = float(rng.uniform(*window.x_range))
        bound = lam(t, x)
        dom = ct.slices.domain(t, x)
        if not (np.isfinite(dom.lo) and np.isfinite(dom.hi)):
            continue
        vs = np.linspace(dom.lo, dom.hi, 401)
        if not dom.lo_closed:
            vs = vs[1:]
        if not dom.hi_closed:
            vs = vs[:-1]
        vals = L_of(t, x)(vs)
        vals = vals[np.isfinite(vals)]
        if len(vals) == 0:
            continue
        sup_L = float(np.max(vals))
        cert.see(sup_L - bound, {"t": t, "x": x, "lambda": bound, "sup_L": sup_L})
    note = "no slab judged: every sampled domain is unbounded or holds no finite L"

    slopes = []
    for _ in range(12):
        t = float(rng.uniform(*window.t_range))
        x = float(rng.uniform(*window.x_range))
        y = float(rng.uniform(*window.x_range))
        if abs(x - y) > 1e-6:
            slopes.append(abs(lam(t, x) - lam(t, y)) / abs(x - y))
    slope = max(slopes) if slopes else 0.0
    return LambdaBound(
        eval=lam,
        note=f"sampled max of convexified running cost; empirical x-Lipschitz <= {slope:.3g}",
        certification=cert.report(tol, note),
    )


VERDICT_VIOLATED = "BLC violated (diverging interior sup)"
VERDICT_BOUNDED = "bounded, candidate lambda found"

# the interior margins of the BLC ladder, widest first
_BLC_MARGINS = (1e-1, 1e-2, 1e-3)


def detect_blc_failure(
    spec: HamiltonianSpec,
    window: Window | None = None,
    threshold: float = TOLERANCES["blc_threshold"],
    plan: SamplePlan | None = None,
    grids: GridPolicy | None = None,
) -> CheckReport:
    """Interior-sup ladder for Lagrangian boundedness on the domain.

    For each margin delta of 1e-1, 1e-2 and 1e-3, the domain of each of
    eight slices drawn in window (default `Window()`) is shrunk by delta at
    both ends and sup L is taken over 2001 points of it. Divergence (final
    sup past the threshold, or sup growth of 8x per rung ending above half
    the threshold) yields the violated verdict; otherwise the final sups
    double as a candidate lambda. Both verdicts are findings, not failures.
    An unbounded domain has no interior ladder and is skipped; a margin at
    which no slab is judged fails the probe. Numeric slices sample H on
    the p-grid of grids.
    """
    plan = plan or SamplePlan()
    window = window or Window()
    rng = plan.rng(101)
    slices = spec.slices(grids)
    slabs = [
        (float(t), float(x))
        for t, x in zip(rng.uniform(*window.t_range, 8), rng.uniform(*window.x_range, 8))
    ]
    sups = []
    for delta in _BLC_MARGINS:
        # the sups per slab at the final margin double as the candidate lambda
        candidates = []
        for t, x in slabs:
            dom = slices.domain(t, x)
            lo, hi = dom.lo + delta, dom.hi - delta
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                continue
            vals = np.asarray(slices.values(t, x, np.linspace(lo, hi, 2001)), dtype=float)
            vals = vals[np.isfinite(vals)]
            if len(vals):
                candidates.append({"t": t, "x": x, "sup_L": float(np.max(vals))})
        if not candidates:
            note = f"no slab judged at margin {delta:g}: every sampled domain is unbounded or too narrow"
            return CheckReport("blc_failure_probe", -np.inf, "fail", [{"note": note}])
        sups.append(max(c["sup_L"] for c in candidates))
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
    wit = [{"margin": float(m), "sup": float(s)} for m, s in zip(_BLC_MARGINS, sups)]
    if not diverging:
        wit.append({"candidate_lambda": candidates})
    return CheckReport("blc_failure_probe", float(sups[-1]), verdict, wit)
