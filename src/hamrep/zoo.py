"""Benchmark Hamiltonians with closed-form conjugates and moduli.

Each entry carries the data the rest of the toolkit consumes: a vectorized
evaluator in p, the continuity modulus (k_R, w_R) with the growth bound c(t)
when one exists, the closed-form Lagrangian and its effective domain when
known, and a bound lambda(t, x) >= L on dom L when one exists. Moduli are
documented next to each definition.

The module also hosts the three equivalent continuity checks (value-level,
Lagrangian-level, epigraph-level) that any admissible (k_R, w_R) pair must
pass simultaneously, plus hand-written representation triples used by the
convexification pipeline.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, ClassVar

import numpy as np

from . import convex_geom as cg
from .errors import ConfigError, UnknownName
from .fenchel import EffectiveDomain, GridPolicy, LagrangianSlices, build_epigraph
from .report import TOLERANCES, CheckReport, Worst
from .sampling import SamplePlan


@dataclasses.dataclass(frozen=True)
class ModulusData:
    """Continuity modulus: |H(t,x,p) - H(t,y,p)| <= k_R(t)|p||x-y| + w_R(t,|x-y|)
    for |x|, |y| <= R, plus the domain growth bound c(t) when available."""

    k_R: Callable[[float, float], float]
    w_R: Callable[[float, float, float], float]
    c: Callable[[float], float] | None = None


@dataclasses.dataclass(frozen=True)
class LambdaBound:
    """Bound lambda(t, x) >= L(t, x, v) on dom L."""

    eval: Callable[[float, float], float]
    note: str = ""
    certification: CheckReport | None = None


@dataclasses.dataclass(frozen=True)
class HamiltonianSpec:
    """A Hamiltonian H(t, x, p), convex in p, with its modulus and, where
    known, its closed-form Lagrangian oracle_L(t, x, v) and domain
    oracle_dom(t, x). oracle_L (and alt_oracle_L) is elementwise in t, x
    and v: t and x may be arrays that broadcast to the shape of v, and
    each entry is the value at its own (t, x), as `LagrangianSlices.values`
    requires."""

    name: str
    eval: Callable  # (t, x, p-array) -> array, convex in p
    modulus: ModulusData
    # the time window and state dimension of every Hamiltonian here
    t_range: ClassVar[tuple[float, float]] = (0.0, 1.0)
    n: ClassVar[int] = 1
    oracle_L: Callable | None = None  # (t, x, v-array) -> array with +inf
    oracle_dom: Callable | None = None  # (t, x) -> EffectiveDomain
    alt_oracle_L: Callable | None = None
    lambda_bound: LambdaBound | None = None
    notes: str = ""

    def slices(self, grids: GridPolicy | None = None) -> LagrangianSlices:
        """The Lagrangian slices of this Hamiltonian on grids (default
        `GridPolicy()`); build one per check, triple or command."""
        return LagrangianSlices(self, grids or GridPolicy())


def _ex_2_1() -> HamiltonianSpec:
    def ev(t, x, p):
        return np.maximum(np.abs(np.asarray(p, dtype=float)) * abs(x) - 1.0, 0.0)

    def oL(t, x, v):
        av, ax = np.abs(np.asarray(v, dtype=float)), np.abs(x)
        # at x = 0 the domain is {0}, where L = 0 / 1 = 0
        return np.where(av <= ax, av / np.where(ax == 0.0, 1.0, ax), np.inf)

    return HamiltonianSpec(
        name="ex_2_1",
        eval=ev,
        # k = 1 from |p| * ||x|-|y||, no zeroth-order term
        modulus=ModulusData(k_R=lambda R, t: 1.0, w_R=lambda R, t, r: 0.0, c=lambda t: 1.0),
        oracle_L=oL,
        oracle_dom=lambda t, x: EffectiveDomain(-abs(x), abs(x), True, True),
        lambda_bound=LambdaBound(eval=lambda t, x: 1.0),
        notes="cone Hamiltonian max(|p||x| - 1, 0); L = |v/x| on [-|x|, |x|]",
    )


def _ex_2_2() -> HamiltonianSpec:
    def ev(t, x, p):
        return np.sqrt(1.0 + np.asarray(p, dtype=float) ** 2) - np.abs(x)

    def oL(t, x, v):
        v = np.asarray(v, dtype=float)
        inside = np.abs(v) <= 1.0
        return np.where(inside, -np.sqrt(np.maximum(0.0, 1.0 - v * v)) + np.abs(x), np.inf)

    return HamiltonianSpec(
        name="ex_2_2",
        eval=ev,
        # x enters only through -|x|: k = 0, w(r) = r
        modulus=ModulusData(k_R=lambda R, t: 0.0, w_R=lambda R, t, r: r, c=lambda t: 1.0),
        oracle_L=oL,
        oracle_dom=lambda t, x: EffectiveDomain(-1.0, 1.0, True, True),
        lambda_bound=LambdaBound(eval=lambda t, x: abs(x)),
        notes="sqrt(1+p^2) - |x|; L = -sqrt(1-v^2) + |x| on [-1, 1]",
    )


def _ex_2_3() -> HamiltonianSpec:
    def ev(t, x, p):
        p = np.asarray(p, dtype=float)
        return np.where(
            p >= -1.0,
            p - 1.0 - abs(x),
            -2.0 * np.sqrt(np.maximum(-p, 0.0)) - abs(x),
        )

    def oL(t, x, v):
        v = np.asarray(v, dtype=float)
        inside = (v > 0.0) & (v <= 1.0)
        safe = np.where(inside, v, 1.0)
        return np.where(inside, 1.0 / safe + np.abs(x), np.inf)

    return HamiltonianSpec(
        name="ex_2_3",
        eval=ev,
        modulus=ModulusData(k_R=lambda R, t: 0.0, w_R=lambda R, t, r: r, c=lambda t: 1.0),
        oracle_L=oL,
        oracle_dom=lambda t, x: EffectiveDomain(0.0, 1.0, False, True),
        notes="L = 1/v + |x| on (0, 1]: open lower end, no bounded lambda",
    )


def _ex_2_4() -> HamiltonianSpec:
    def ev(t, x, p):
        s = np.abs(np.asarray(p, dtype=float) * x)
        return np.where(s > 1.0, (np.sqrt(np.maximum(s, 1.0)) - 1.0) ** 2, 0.0)

    def oL(t, x, v):
        av, ax = np.abs(np.asarray(v, dtype=float)), np.abs(x)
        inside = av < ax
        # at x = 0 the domain is {0}, where L = 0 / 1 = 0
        return np.where(inside | (av == 0.0), av / np.where(inside, ax - av, 1.0), np.inf)

    def dom(t, x):
        if x == 0.0:
            return EffectiveDomain(0.0, 0.0, True, True)
        return EffectiveDomain(-abs(x), abs(x), False, False)

    return HamiltonianSpec(
        name="ex_2_4",
        eval=ev,
        modulus=ModulusData(k_R=lambda R, t: 1.0, w_R=lambda R, t, r: 0.0, c=lambda t: 1.0),
        oracle_L=oL,
        oracle_dom=dom,
        notes="L = |v|/(|x| - |v|) on the open interval (-|x|, |x|)",
    )


def _ex_2_5() -> HamiltonianSpec:
    def ev(t, x, p):
        return np.asarray(p, dtype=float) ** 2 / (2.0 + 2.0 * t) - abs(x)

    def oL(t, x, v):
        return (1.0 + t) * np.asarray(v, dtype=float) ** 2 / 2.0 + np.abs(x)

    def alt(t, x, v):
        return (1.0 + t) * np.asarray(v, dtype=float) ** 2 + np.abs(x)

    return HamiltonianSpec(
        name="ex_2_5",
        eval=ev,
        modulus=ModulusData(k_R=lambda R, t: 0.0, w_R=lambda R, t, r: r, c=None),
        oracle_L=oL,
        oracle_dom=lambda t, x: EffectiveDomain(-np.inf, np.inf, False, False),
        alt_oracle_L=alt,
        notes=(
            "quadratic-in-p with full-space Lagrangian domain, no growth bound "
            "(H4 missing); primary oracle is the directly derived conjugate "
            "(1+t)v^2/2 + |x|, the printed variant (1+t)v^2 + |x| rides along "
            "as alt_oracle_L"
        ),
    )


def _ex_2_6() -> HamiltonianSpec:
    def ev(t, x, p):
        p = np.asarray(p, dtype=float)
        if t <= 0.0:
            return np.zeros_like(p)
        return abs(x) * np.maximum(np.abs(p) - abs(np.log(t)), 0.0)

    def oL(t, x, v):
        av, live = np.abs(np.asarray(v, dtype=float)), np.greater(t, 0.0)
        # on the null set t <= 0 the domain is {0}, where L = 0 * 0 = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(live, np.abs(np.log(t)), 0.0)
        return np.where(av <= np.where(live, np.abs(x), 0.0), slope * av, np.inf)

    def dom(t, x):
        return EffectiveDomain(-abs(x), abs(x), True, True)

    return HamiltonianSpec(
        name="ex_2_6",
        eval=ev,
        # null set t = 0: H vanishes and lambda = |ln t||x| diverges as t -> 0+
        modulus=ModulusData(k_R=lambda R, t: 1.0, w_R=lambda R, t, r: 0.0, c=lambda t: 1.0),
        oracle_L=oL,
        oracle_dom=dom,
        lambda_bound=LambdaBound(eval=lambda t, x: (abs(np.log(t)) * abs(x) if t > 0.0 else 0.0)),
        notes="|x| max(|p| - |ln t|, 0); L = |ln t||v| on [-|x|, |x|], lambda = |ln t||x|",
    )


def _abs_p() -> HamiltonianSpec:
    def ev(t, x, p):
        return np.abs(np.asarray(p, dtype=float))

    def oL(t, x, v):
        v = np.asarray(v, dtype=float)
        return np.where(np.abs(v) <= 1.0, 0.0, np.inf)

    return HamiltonianSpec(
        name="abs_p",
        eval=ev,
        modulus=ModulusData(k_R=lambda R, t: 0.0, w_R=lambda R, t, r: 0.0, c=lambda t: 1.0),
        oracle_L=oL,
        oracle_dom=lambda t, x: EffectiveDomain(-1.0, 1.0, True, True),
        lambda_bound=LambdaBound(eval=lambda t, x: 0.0),
        notes="x-independent cone |p|; L is the indicator of [-1, 1]",
    )


_REGISTRY: dict[str, Callable[[], HamiltonianSpec]] = {
    "ex_2_1": _ex_2_1,
    "ex_2_2": _ex_2_2,
    "ex_2_3": _ex_2_3,
    "ex_2_4": _ex_2_4,
    "ex_2_5": _ex_2_5,
    "ex_2_6": _ex_2_6,
    "abs_p": _abs_p,
}


def names() -> list[str]:
    return list(_REGISTRY)


def builtin(name: str) -> HamiltonianSpec:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownName(f"no built-in Hamiltonian named {name!r}; know {sorted(_REGISTRY)}")
    return factory()


def oracle_probe_values(
    slices: LagrangianSlices,
    t: float,
    x: float,
    margin: float = TOLERANCES["margin"],
) -> np.ndarray:
    """Velocity probes where a numeric conjugate can be held to its oracle.

    min(v_count, 201) points, v_count of the slices' grids, sit evenly at
    least `margin` inside the slices' bounded domain and inside the
    edge-slope trust interval of the sampled H slice; outside that
    interval the p-window cannot resolve the conjugate (the missing slopes
    live beyond the window ends), so comparisons there test the window,
    not the transform. Steep Lagrangians such as 1/v near v = 0 shrink the
    probe set accordingly. Degenerate domains return their single point.
    """
    s_lo, s_hi = slices.trust(t, x)
    lo, hi = slices.bounded_domain(t, x)
    if hi - lo <= 2.0 * margin:
        return np.array([0.5 * (lo + hi)])
    vlo = max(lo + margin, s_lo)
    vhi = min(hi - margin, s_hi)
    if vhi <= vlo:
        return np.array([0.5 * (max(lo, s_lo) + min(hi, s_hi))])
    return np.linspace(vlo, vhi, min(slices.grids.v_count, 201))


def check_HLC(
    spec: HamiltonianSpec,
    R: float,
    samples: SamplePlan | None = None,
    tol: float = TOLERANCES["hlc"],
) -> CheckReport:
    """Value-level continuity: |H(t,x,p) - H(t,y,p)| <= k|p||x-y| + w(|x-y|)
    on seeded triples and seeded p in [-10, 10]; pass when the worst
    relative excess stays under tol. A NaN excess fails the run and its
    first (t, x, y, p) is the witness; a run that judges no sample (no
    triple or no p in the plan) fails."""
    plan = samples or SamplePlan()
    mod = spec.modulus
    worst = Worst("hlc", nan_note="excess is NaN")
    ps = plan.p_values(10.0)
    for t, x, y in plan.triples(spec.t_range, R):
        lhs = np.abs(np.asarray(spec.eval(t, x, ps)) - np.asarray(spec.eval(t, y, ps)))
        rhs = mod.k_R(R, t) * np.abs(ps) * abs(x - y) + mod.w_R(R, t, abs(x - y))
        rel = (lhs - rhs) / np.maximum(1.0, np.abs(rhs))
        if not worst.see(rel, lambda k: {"t": float(t), "x": float(x), "y": float(y), "p": float(ps[k])}):
            break
    return worst.report(tol, "no sample judged: the sample plan has no (t, x, y) triple or no p")


def check_LLC(
    spec: HamiltonianSpec,
    R: float,
    samples: SamplePlan | None = None,
    tol: float = TOLERANCES["llc"],
    grids: GridPolicy | None = None,
) -> CheckReport:
    """Lagrangian-level continuity: every v in dom L(t,x) admits u within
    k|x-y| of v with L(t,y,u) <= L(t,x,v) + w(|x-y|). Each probe v gets the
    window [v - k|x-y|, v + k|x-y|] cut to dom L(t,y), an unbounded end at
    +-1e6, and the exact minimum of L(t,y,.) over it from
    `LagrangianSlices.window_min`; an empty window counts as +inf excess, a
    NaN one (a NaN k_R) as NaN. L is queried per row: one `values` call over
    the probes of every (triple, direction), then one `window_min` call over
    all their windows, and the worst excess is taken in loop order. L, its
    domain and the window that clamps an unbounded domain come from the
    spec's slices on grids, and k and w from its modulus. A run that judges
    no sample (every probe window or slice empty) fails."""
    plan = samples or SamplePlan()
    mod = spec.modulus
    slices = spec.slices(grids)
    fracs = plan.unit_fractions()
    probed: list = []  # (t, a, b, k|a-b|, w(|a-b|), probes)
    for t, x, y in plan.triples(spec.t_range, R):
        for a, b in ((x, y), (y, x)):
            d = abs(a - b)
            dom_a = slices.domain(t, a)
            # an unbounded slice is probed on a finite window, closed at the clamps
            lo, hi = slices.bounded_domain(t, a)
            lo_closed = dom_a.lo_closed or not np.isfinite(dom_a.lo)
            hi_closed = dom_a.hi_closed or not np.isfinite(dom_a.hi)
            inset = 1e-4 * max(hi - lo, 1e-12)
            lo_s = lo + (0.0 if lo_closed else inset)
            hi_s = hi - (0.0 if hi_closed else inset)
            if lo_s <= hi_s:
                vs = lo_s + fracs * (hi_s - lo_s)
                probed.append((t, a, b, mod.k_R(R, t) * d, mod.w_R(R, t, d), vs))
    T, A = np.array([p[:2] for p in probed], dtype=float).reshape(-1, 2).T
    V = np.array([p[5] for p in probed], dtype=float).reshape(len(probed), len(fracs))
    LA = np.asarray(slices.values(T[:, None], A[:, None], V), dtype=float)
    judged: list = []  # (t, a, b, w, probes, L(t, a, probes), u0, u1)
    for (t, a, b, kd, w, vs), la in zip(probed, LA):
        keep = np.isfinite(la)
        if not np.any(keep):
            continue
        # an unbounded search domain is cut at +-1e6
        dom_b = slices.domain(t, b)
        blo = dom_b.lo if np.isfinite(dom_b.lo) else -1e6
        bhi = dom_b.hi if np.isfinite(dom_b.hi) else 1e6
        vs_f = vs[keep]
        judged.append((t, a, b, w, vs_f, la[keep], np.maximum(vs_f - kd, blo), np.minimum(vs_f + kd, bhi)))
    worst = Worst("llc", nan_note="search window or excess is NaN")
    if not judged:
        return worst.report(tol, "no sample judged: every probe window or Lagrangian slice was empty")
    t_s, a_s, b_s, w_s, vs_s, la_s, u0_s, u1_s = zip(*judged)
    lens = [len(vs) for vs in vs_s]
    u0, u1 = np.concatenate(u0_s), np.concatenate(u1_s)
    best = slices.window_min(np.repeat(t_s, lens), np.repeat(b_s, lens), u0, np.maximum(u1, u0))
    excess = np.where(u0 > u1, np.inf, best - np.concatenate(la_s) - np.repeat(w_s, lens))
    # a NaN window has no minimum to compare
    excess[np.isnan(u0) | np.isnan(u1)] = np.nan
    # the first worst entry of the flat excess is the first in loop order
    ends = np.cumsum(lens)

    def witness(k):
        g = int(np.searchsorted(ends, k, side="right"))
        j = k - (ends[g] - lens[g])
        return {"t": float(t_s[g]), "x": float(a_s[g]), "y": float(b_s[g]), "v": float(vs_s[g][j])}

    worst.see(excess, witness)
    return worst.report(tol)


def check_MLC(
    spec: HamiltonianSpec,
    R: float,
    samples: SamplePlan | None = None,
    grids: GridPolicy | None = None,
    tol: float | None = TOLERANCES["mlc"],
) -> CheckReport:
    """Epigraph-level continuity: the truncated E_L(t,x) sits inside the
    (k|x-y|, w)-inflation of E_L(t,y) truncated w higher; E_L(t,x) is
    capped 3 above the higher of the two slice minima. Slices come from the
    numeric conjugate so the check exercises the full grid pipeline, both
    on the wider of the slices' half-widths at x and y with r = R. A NaN
    containment gap fails the run and its first triple is the witness; a
    run that judges no triple fails."""
    plan = samples or SamplePlan()
    mod = spec.modulus
    slices = spec.slices(grids)
    worst = Worst("mlc", nan_note="containment gap is NaN")
    h_used = 0.0
    for t, x, y in plan.triples(spec.t_range, R):
        W = max(slices.halfwidth(t, x, R), slices.halfwidth(t, y, R))
        Lx = slices.on_grid(t, x, W, trusted=False)
        Ly = slices.on_grid(t, y, W, trusted=False)
        h_used = max(h_used, Lx.grid.h)
        d = abs(x - y)
        kd = mod.k_R(R, t) * d
        w = mod.w_R(R, t, d)
        cap = max(Lx.min_value(), Ly.min_value()) + 3.0
        Ex = build_epigraph(Lx, cap)
        Ey = build_epigraph(Ly, cap + w)
        inflated = cg.minkowski_inflate(Ey, kd, w)
        if not worst.see(cg.containment_gap(inflated, Ex), {"t": float(t), "x": float(x), "y": float(y)}):
            break
    bound = tol if tol is not None else 2.0 * h_used + 5e-4
    return worst.report(bound, "no triple judged: the sample plan is empty")


def _triple_from_formulas(control, f, l, source):
    """User triple whose numpy formulas f and l map (t, x) and an (N, q)
    stack of control rows to (N,) arrays, elementwise in t and x; e_eval
    takes one control (q,) or a stack (N, q), with a scalar or per-row
    t and x."""
    # builder imports zoo at module level, so import it lazily here
    from .builder import RepresentationTriple

    def e_eval(ts, xs, a):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        if a.ndim > 2 or a.shape[-1] != control.dim:
            raise ConfigError(f"control points of this triple have {control.dim} coordinates")
        rows = a.reshape(-1, control.dim)
        t, x = np.asarray(ts, dtype=float), np.asarray(xs, dtype=float)
        e = np.stack([f(t, x, rows), l(t, x, rows)], axis=1)
        return e.reshape(a.shape[:-1] + (2,))

    return RepresentationTriple(
        control=control,
        e_eval=e_eval,
        provenance="user",
        source=source,
        grid_h=0.0,
    )


def hat_rep_ex_2_1(n_side: int = 21):
    """Hand-authored representation of max(|p||x| - 1, 0) on the square
    A = [-1, 1]^2: f(x, a) = a1 |x|, l(x, a) = |a1| + |a2| (1 - |a1|).

    Unlike the one-control parametrization a -> (a|x|, L(x, a|x|)), whose
    Lagrangian jumps at x = 0, both components here are Lipschitz in x.
    """
    from .builder import ControlSet

    side = np.linspace(-1.0, 1.0, n_side)
    g = np.meshgrid(side, side, indexing="ij")
    pts = np.stack([g[0].ravel(), g[1].ravel()], axis=1)
    control = ControlSet("finite", 2, points=pts)

    def f(t, x, a):
        return a[:, 0] * abs(x)

    def l(t, x, a):
        return abs(a[:, 0]) + abs(a[:, 1]) * (1.0 - abs(a[:, 0]))

    return _triple_from_formulas(control, f, l, builtin("ex_2_1"))


def circle_rep_ex_2_2():
    """Hand-authored representation of sqrt(1 + p^2) - |x| on the unit
    circle a1^2 + a2^2 = 1: f(x, a) = a1, l(x, a) = a2 + |x|, sampled at
    144 equally spaced points, among them (1, 0), (0, 1), (-1, 0) and
    (0, -1) exactly.
    """
    from .builder import ControlSet

    ang = 2.0 * np.pi * np.arange(144) / 144
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # pin the axis points exactly; cos(pi/2) etc. carry rounding noise
    pts[[0, 36, 72, 108]] = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    control = ControlSet("finite", 2, points=pts)

    def f(t, x, a):
        return a[:, 0]

    def l(t, x, a):
        return a[:, 1] + abs(x)

    return _triple_from_formulas(control, f, l, builtin("ex_2_2"))


def family_p_abs(h=0.0, k=0.0):
    """Representation family for H(x, p) = |p| with A = [-1, 1]:
    f(x, a) = a (1 + |a| h(x)) / (1 + h(x)), l(x, a) = (1 - |a|) k(x).

    h and k are nonnegative numpy functions of x, applied elementwise to
    per-row x (constants accepted). Every member satisfies f(x, 1) = 1,
    f(x, -1) = -1 and l >= 0, so the sup over A of p f - l recovers |p|
    exactly.
    """
    from .builder import ControlSet

    h_fn = h if callable(h) else (lambda x, _v=float(h): _v)
    k_fn = k if callable(k) else (lambda x, _v=float(k): _v)
    control = ControlSet("interval", 1, lo=-1.0, hi=1.0)

    def f(t, x, a):
        hv = np.asarray(h_fn(x), dtype=float)
        return a[:, 0] * (1.0 + abs(a[:, 0]) * hv) / (1.0 + hv)

    def l(t, x, a):
        return (1.0 - abs(a[:, 0])) * k_fn(x)

    return _triple_from_formulas(control, f, l, builtin("abs_p"))
