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
from .fenchel import _EPI_BLOCK, EffectiveDomain, LagrangianSlices, UniformGrid, build_epigraph
from .report import CheckReport, Worst
from .sampling import SamplePlan


def momentum_grid(count: int = 10001) -> UniformGrid:
    """The p-grid every H sample lives on: count nodes over [-50, 50]."""
    return UniformGrid(-50.0, 50.0, count)


@dataclasses.dataclass(frozen=True)
class ModulusData:
    """Continuity modulus: |H(t,x,p) - H(t,y,p)| <= k_R(t)|p||x-y| + w_R(t,|x-y|)
    for |x|, |y| <= R, plus the domain growth bound c(t) when available."""

    k_R: Callable[[float, float], float]
    w_R: Callable[[float, float, float], float]
    c: Callable[[float], float] | None = None

    def scaled(self, factor: float) -> "ModulusData":
        k, w = self.k_R, self.w_R
        return ModulusData(
            k_R=lambda R, t: factor * k(R, t),
            w_R=lambda R, t, r: factor * w(R, t, r),
            c=self.c,
        )


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
    flags: dict = dataclasses.field(
        default_factory=lambda: {"H1": True, "H2": True, "H3": True, "H4": True, "HLC": True, "BLC": True}
    )
    notes: str = ""

    def slices(self, p_grid: UniformGrid | None = None) -> LagrangianSlices:
        """The Lagrangian slices of this Hamiltonian on p_grid (default
        `momentum_grid()`); build one per check, triple or command."""
        return LagrangianSlices(self, p_grid or momentum_grid())


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

    flags = {"H1": True, "H2": True, "H3": True, "H4": True, "HLC": True, "BLC": False}
    return HamiltonianSpec(
        name="ex_2_3",
        eval=ev,
        modulus=ModulusData(k_R=lambda R, t: 0.0, w_R=lambda R, t, r: r, c=lambda t: 1.0),
        oracle_L=oL,
        oracle_dom=lambda t, x: EffectiveDomain(0.0, 1.0, False, True),
        flags=flags,
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

    flags = {"H1": True, "H2": True, "H3": True, "H4": True, "HLC": True, "BLC": False}
    return HamiltonianSpec(
        name="ex_2_4",
        eval=ev,
        modulus=ModulusData(k_R=lambda R, t: 1.0, w_R=lambda R, t, r: 0.0, c=lambda t: 1.0),
        oracle_L=oL,
        oracle_dom=dom,
        flags=flags,
        notes="L = |v|/(|x| - |v|) on the open interval (-|x|, |x|)",
    )


def _ex_2_5() -> HamiltonianSpec:
    def ev(t, x, p):
        return np.asarray(p, dtype=float) ** 2 / (2.0 + 2.0 * t) - abs(x)

    def oL(t, x, v):
        return (1.0 + t) * np.asarray(v, dtype=float) ** 2 / 2.0 + np.abs(x)

    def alt(t, x, v):
        return (1.0 + t) * np.asarray(v, dtype=float) ** 2 + np.abs(x)

    flags = {"H1": True, "H2": True, "H3": True, "H4": False, "HLC": True, "BLC": False}
    return HamiltonianSpec(
        name="ex_2_5",
        eval=ev,
        modulus=ModulusData(k_R=lambda R, t: 0.0, w_R=lambda R, t, r: r, c=None),
        oracle_L=oL,
        oracle_dom=lambda t, x: EffectiveDomain(-np.inf, np.inf, False, False),
        alt_oracle_L=alt,
        flags=flags,
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
    margin: float = 0.1,
    count: int = 201,
) -> np.ndarray:
    """Velocity probes where a numeric conjugate can be held to its oracle.

    Points sit at least `margin` inside the slices' bounded domain and
    inside the edge-slope trust interval of the sampled H slice; outside
    that interval the p-window cannot resolve the conjugate (the missing
    slopes live beyond the window ends), so comparisons there test the
    window, not the transform. Steep Lagrangians such as 1/v near v = 0
    shrink the probe set accordingly. Degenerate domains return their
    single point.
    """
    s_lo, s_hi = slices.trust(t, x)
    lo, hi = slices.bounded_domain(t, x)
    if hi - lo <= 2.0 * margin:
        return np.array([0.5 * (lo + hi)])
    vlo = max(lo + margin, s_lo)
    vhi = min(hi - margin, s_hi)
    if vhi <= vlo:
        return np.array([0.5 * (max(lo, s_lo) + min(hi, s_hi))])
    return np.linspace(vlo, vhi, count)


def check_HLC(
    spec: HamiltonianSpec,
    R: float,
    samples: SamplePlan | None = None,
    modulus: ModulusData | None = None,
    tol: float = 1e-9,
) -> CheckReport:
    """Value-level continuity: |H(t,x,p) - H(t,y,p)| <= k|p||x-y| + w(|x-y|)
    on seeded triples and seeded p in [-10, 10]; pass when the worst
    relative excess stays under tol. A NaN excess fails the run and its
    first (t, x, y, p) is the witness; a run that judges no sample (no
    triple or no p in the plan) fails."""
    plan = samples or SamplePlan()
    mod = modulus or spec.modulus
    worst = Worst("hlc", nan_note="excess is NaN")
    ps = plan.p_values(10.0)
    for t, x, y in plan.triples(spec.t_range, R):
        lhs = np.abs(np.asarray(spec.eval(t, x, ps)) - np.asarray(spec.eval(t, y, ps)))
        rhs = mod.k_R(R, t) * np.abs(ps) * abs(x - y) + mod.w_R(R, t, abs(x - y))
        rel = (lhs - rhs) / np.maximum(1.0, np.abs(rhs))
        if not worst.see(rel, lambda k: {"t": float(t), "x": float(x), "y": float(y), "p": float(ps[k])}):
            break
    return worst.report(tol, "no sample judged: the sample plan has no (t, x, y) triple or no p")


def _finite(vals) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    return np.where(np.isnan(vals), np.inf, vals)


def _convex_argmin(f, lo: np.ndarray, hi: np.ndarray):
    """Vectorized ternary search for the minimum of a convex scalar family.

    f maps a 1-D array of abscissas to function values elementwise (NaN
    treated as +inf), so both probes of an iteration go through one call;
    the 1-D lo/hi bound each search window. 72 iterations shrink each
    window to (2/3)^72, about 2.1e-13, of its width; that is below the
    double spacing only for windows narrower than about 1e-3 of their
    magnitude."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    for _ in range(72):
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        f12 = _finite(f(np.concatenate([m1, m2])))
        f1, f2 = f12[: len(lo)], f12[len(lo) :]
        move_lo = f1 > f2
        lo = np.where(move_lo, m1, lo)
        hi = np.where(move_lo, hi, m2)
    mid = 0.5 * (lo + hi)
    return mid, _finite(f(mid))


def _window_min(f, u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """Minimum of the convex f (NaN read as +inf) over each window
    [u0_i, u1_i], u1 >= u0: the lower of a 65-node grid and a ternary
    search. f(rows, U) maps a (k, m) stack of abscissas, row i inside the
    window rows[i] (rows a slice of the windows), to their values, so a
    caller can tell the windows apart. The grid stage runs in consecutive
    blocks of about `_EPI_BLOCK` values, so its temporaries stay in cache
    and its memory does not grow with the window count; each window's
    minimum is the same in any block. The ternary probes and the midpoints
    are one call each over every window. A window of zero width evaluates
    to f(u0_i): each of its grid nodes, ternary probes and its midpoint
    equals u0_i. When every window has zero width, one call of f at u0
    gives those values."""
    n, every = len(u0), slice(None)
    if np.all(u1 == u0):
        return _finite(f(every, u0[:, None]))[:, 0]
    nodes = np.linspace(0.0, 1.0, 65)
    step = max(1, _EPI_BLOCK // len(nodes))
    grid_min = np.empty(n)
    for s in range(0, n, step):
        rows = slice(s, s + step)
        U = u0[rows, None] + nodes[None, :] * (u1[rows] - u0[rows])[:, None]
        grid_min[rows] = np.min(_finite(f(rows, U)), axis=1)
    # _convex_argmin probes the flat stack [m1, m2] (or the N midpoints)
    _, tern_min = _convex_argmin(lambda u: f(every, u.reshape(-1, n).T).T.ravel(), u0, u1)
    return np.minimum(grid_min, tern_min)


def check_LLC(
    spec: HamiltonianSpec,
    R: float,
    samples: SamplePlan | None = None,
    modulus: ModulusData | None = None,
    tol: float = 2e-2,
    p_grid: UniformGrid | None = None,
) -> CheckReport:
    """Lagrangian-level continuity: every v in dom L(t,x) admits u within
    k|x-y| of v with L(t,y,u) <= L(t,x,v) + w(|x-y|). The u-search combines
    a coarse grid over the window intersected with dom L(t,y) and a ternary
    refinement (the slice is convex in u), so steep slices near domain
    boundaries resolve to within the ternary's 2e-13 of the window width;
    an empty search window counts as +inf excess, a NaN one (a NaN k_R) as
    NaN. A window of zero width (always so when k|x-y| = 0) is its own
    minimizer. L is queried per row (`LagrangianSlices.values`): one call
    for the probes of all (triple, direction) pairs, then one `_window_min`
    search over all their windows (a single call when every window has
    zero width). Its grid stage takes one L call per block of about
    `_EPI_BLOCK` values, and its ternary and midpoint stages one call per
    iteration over every window, so the count grows with the grid blocks,
    not with the number of (triple, direction) sets. The worst excess is
    then taken in loop order. L, its domain and the window
    that clamps an unbounded domain come from the spec's slices on p_grid;
    modulus overrides k_R and w_R only. A run that judges no sample (every
    probe window or slice empty) fails."""
    plan = samples or SamplePlan()
    mod = modulus or spec.modulus
    slices = spec.slices(p_grid)
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
    t_w, b_w = np.repeat(t_s, lens)[:, None], np.repeat(b_s, lens)[:, None]
    best = _window_min(lambda rows, U: slices.values(t_w[rows], b_w[rows], U), u0, np.maximum(u1, u0))
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
    modulus: ModulusData | None = None,
    p_grid: UniformGrid | None = None,
    v_count: int = 601,
    tol: float | None = None,
) -> CheckReport:
    """Epigraph-level continuity: the truncated E_L(t,x) sits inside the
    (k|x-y|, w)-inflation of E_L(t,y) truncated w higher; E_L(t,x) is
    capped 3 above the higher of the two slice minima. Slices come from the
    numeric conjugate so the check exercises the full grid pipeline, both
    on the wider of the slices' half-widths at x and y with r = R. A NaN
    containment gap fails the run and its first triple is the witness; a
    run that judges no triple fails."""
    plan = samples or SamplePlan()
    mod = modulus or spec.modulus
    slices = spec.slices(p_grid)
    worst = Worst("mlc", nan_note="containment gap is NaN")
    h_used = 0.0
    for t, x, y in plan.triples(spec.t_range, R):
        W = max(slices.halfwidth(t, x, R), slices.halfwidth(t, y, R))
        h_used = max(h_used, UniformGrid(-W, W, v_count).h)
        Lx = slices.on_grid(t, x, v_count, W, trusted=False)
        Ly = slices.on_grid(t, y, v_count, W, trusted=False)
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


def _triple_from_formulas(control, f, l, source, note=""):
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
        caps=note,
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

    return _triple_from_formulas(control, f, l, builtin("ex_2_1"), "square control grid")


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

    return _triple_from_formulas(control, f, l, builtin("ex_2_2"), "unit-circle control")


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

    return _triple_from_formulas(control, f, l, builtin("abs_p"), "interval control family")
