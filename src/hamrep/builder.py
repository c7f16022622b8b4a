"""Construction of faithful control representations (A, f, l).

The pipeline per (t, x): sample the Lagrangian slice L(t, x, .) on a
velocity grid and truncate its epigraph to a polygon E on a power-of-two
cap ladder. Each (scaled) control point a selects e(t, x, a), the Steiner
point of the projection body P(a, E) = E intersect B(a, 2 d(a, E)): a
itself when a lies in E, else the exact closed form of
`convex_geom.disc_steiner`. One batch holds rows at one or many (t, x): a
whole sample plan at one (t, x), or the Lipschitz pairs of
`verify_triple` at their own (t, x) each. Every row keeps the slice and
ladder rung of its own (t, x), and the rung bodies of the batch are
stacked, so a batch makes two distance calls and one Steiner call. Then
f(t, x, a) and l(t, x, a) are the two components of e, and H is
recovered as the sup of p f - l over the control samples.

Two control regimes ship: full-space controls with identity scaling, and
unit-ball controls scaled by M(t, x) large enough that the scaled ball
covers the bounded epigraph slice below a bound lambda.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable

import numpy as np

from . import convex_geom as cg
from .errors import BLCViolation, ConfigError, HypothesisViolation, MissingC
from .fenchel import (
    ConvexGridFunction,
    EffectiveDomain,
    LagrangianSlices,
    UniformGrid,
    build_epigraph,
    row_slabs,
)
from .report import CheckReport, Worst
from .sampling import SamplePlan
from .zoo import HamiltonianSpec, momentum_grid


@dataclasses.dataclass(frozen=True)
class Window:
    t_range: tuple[float, float] = (0.0, 1.0)
    x_range: tuple[float, float] = (-1.0, 1.0)
    p_range: tuple[float, float] = (-3.0, 3.0)


@dataclasses.dataclass(frozen=True)
class APlan:
    """Deterministic control-sample layout."""

    n_box: int = 41
    box_half: float = 3.0
    n_radii: int = 8
    n_angles: int = 40  # multiple of 4 keeps the axes in the polar grid


@dataclasses.dataclass(frozen=True)
class ControlSet:
    kind: str  # full_space | unit_ball | interval | finite
    dim: int
    lo: float = -1.0
    hi: float = 1.0
    points: np.ndarray | None = None

    def samples(self, plan: APlan | None = None) -> np.ndarray:
        plan = plan or APlan()
        if self.kind == "full_space":
            side = np.linspace(-plan.box_half, plan.box_half, plan.n_box)
            g = np.meshgrid(side, side, indexing="ij")
            return np.stack([g[0].ravel(), g[1].ravel()], axis=1)
        if self.kind == "unit_ball":
            radii = (np.arange(plan.n_radii) + 1.0) / plan.n_radii
            ang = 2.0 * np.pi * np.arange(plan.n_angles) / plan.n_angles
            rr, aa = np.meshgrid(radii, ang, indexing="ij")
            pts = np.stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()], axis=1)
            return np.concatenate([np.zeros((1, 2)), pts], axis=0)
        if self.kind == "interval":
            return np.linspace(self.lo, self.hi, 41)[:, None]
        if self.kind == "finite":
            if self.points is None:
                raise ConfigError("finite control set without points")
            return np.asarray(self.points, dtype=float)
        raise ConfigError(f"unknown control kind {self.kind!r}")


@dataclasses.dataclass(frozen=True)
class GridPolicy:
    """Discretization knobs for the construction."""

    p_count: int = 10001
    v_count: int = 601

    def p_grid(self) -> UniformGrid:
        return momentum_grid(self.p_count)


@dataclasses.dataclass(frozen=True)
class ImageReport:
    domain: EffectiveDomain
    gap: float


@dataclasses.dataclass
class RepresentationTriple:
    """Representation data: H(t,x,p) = sup_a [ p f(t,x,a) - l(t,x,a) ].

    e_eval(ts, xs, A) is the one evaluator of every triple: it maps a
    control a of shape (q,) to the point e = (f, l) of shape (2,), and an
    (N, q) stack of controls to the (N, 2) stack of their points. A scalar
    t or x serves every row; arrays give one (t, x) per row. Row i of the
    result is bit for bit what e_eval gives for that control alone at its
    own (t, x). e_table makes one such call per (t, x). scaling(t, x) is
    the factor M the controls are scaled by (1 for unscaled controls).
    control_samples(t, x) yields the deterministic a-plan (including the
    lift points for constructed triples, which e maps to themselves); a
    triple without it samples its control set.
    """

    control: ControlSet
    e_eval: Callable  # (ts, xs, (q,) | (N, q)) -> (2,) | (N, 2)
    provenance: str
    source: HamiltonianSpec
    caps: str
    scaling: Callable[[float, float], float] = lambda t, x: 1.0
    control_samples: Callable | None = None
    grid_h: float = 0.0
    _tables: dict = dataclasses.field(default_factory=dict, repr=False)
    _core: object = dataclasses.field(default=None, repr=False)

    def default_samples(self, t: float, x: float) -> np.ndarray:
        if self.control_samples is not None:
            return self.control_samples(t, x)
        return self.control.samples()

    def e_table(self, t: float, x: float, a_samples: np.ndarray | None = None):
        """(A, F, L) arrays over the sample plan; cached for the default plan."""
        key = None
        if a_samples is None:
            key = (float(t), float(x))
            if key in self._tables:
                return self._tables[key]
            a_samples = self.default_samples(t, x)
        A = np.atleast_2d(np.asarray(a_samples, dtype=float))
        E = np.asarray(self.e_eval(t, x, A), dtype=float)
        if E.shape != (len(A), 2):
            raise ConfigError(
                f"e_eval must map an (N, q) control stack to (N, 2) points; "
                f"got shape {E.shape} for N = {len(A)}"
            )
        out = (A, E[:, 0].copy(), E[:, 1].copy())
        if key is not None:
            self._tables[key] = out
        return out

    @functools.cached_property
    def slices(self) -> LagrangianSlices:
        """The source's Lagrangian slices: a constructed triple's own, on its
        p-grid, else the source's on the default p-grid."""
        return self._core.slices if self._core is not None else self.source.slices()


def _require_flags(spec: HamiltonianSpec, keys: tuple[str, ...]):
    bad = [k for k in keys if not spec.flags.get(k, True)]
    if bad:
        raise HypothesisViolation(f"{spec.name} violates {bad}")


# how far a sampled L may rise above lambda before BLCViolation
_BLC_TOL = 2e-2

# rungs are frexp exponents of doubles, so below this; (slab, rung) keys
# pack into one integer
_RUNG_SPAN = 2048


def _rung_index(caps: np.ndarray, lmin) -> np.ndarray:
    """Ladder rung j of each cap: the lowest j >= 0 with min L + 2**j at or
    above it."""
    # frexp keeps exact powers of two on their own rung
    mant, expo = np.frexp(np.maximum(caps - lmin, 1.0))
    return np.where(mant == 0.5, expo - 1, expo)


class _SliceCore:
    """Shared slice/epigraph machinery behind both builders; a compact
    build's core holds the spec's bound lambda and checks each slice
    against it."""

    def __init__(self, spec: HamiltonianSpec, policy: GridPolicy, lam: Callable | None = None):
        self.policy = policy
        self.lam = lam
        self.slices = spec.slices(policy.p_grid())
        # v-grid spacing at mid-time and x = 0, reported as the triple's grid_h
        t0 = 0.5 * (spec.t_range[0] + spec.t_range[1])
        w = self.slices.halfwidth(t0, 0.0)
        self.grid_h = UniformGrid(-w, w, policy.v_count).h
        self._kept: dict[tuple[float, float], ConvexGridFunction] = {}
        self._epis: dict[tuple[float, float, int], cg.ConvexBody] = {}

    def slice(self, t: float, x: float) -> ConvexGridFunction:
        """Trusted L(t, x, .) on the v-grid, kept per (t, x)."""
        key = (float(t), float(x))
        fn = self._kept.get(key)
        if fn is not None:
            return fn
        fn = self.slices.on_grid(t, x, self.policy.v_count)
        if self.lam is not None:
            finite = fn.values[np.isfinite(fn.values)]
            excess = float(np.max(finite)) - float(self.lam(t, x))
            if excess > _BLC_TOL:
                raise BLCViolation(
                    f"sampled L exceeds lambda by {excess:.3g} at (t={t}, x={x})"
                )
        self._kept[key] = fn
        return fn

    def _rung(self, t: float, x: float, j: int) -> cg.ConvexBody:
        """The epigraph of L(t, x, .) capped at min L + 2**j, kept per rung."""
        key = (t, x, j)
        epi = self._epis.get(key)
        if epi is None:
            fn = self.slice(t, x)
            epi = self._epis[key] = build_epigraph(fn, fn.min_value() + float(2**j))
        return epi

    def _rung_stack(self, slabs, slab_of: np.ndarray, caps: np.ndarray, lmin: np.ndarray):
        """Truncated epigraphs on a power-of-two cap ladder above each
        slice's minimum, so evaluations share polygons: row i gets the
        epigraph of slab slab_of[i] capped at min L + 2**j, the lowest rung
        at or above caps[i] (j >= 0). Returns the distinct rung bodies as
        one stack (a lone body's own stack of one) and each row's index
        into it."""
        rungs = _rung_index(caps, lmin)
        keys, owner = np.unique(slab_of * _RUNG_SPAN + rungs, return_inverse=True)
        bodies = [self._rung(*slabs[key // _RUNG_SPAN], key % _RUNG_SPAN) for key in keys.tolist()]
        return (bodies[0].stack if len(bodies) == 1 else cg.BodyStack(bodies)), owner

    def epigraph(self, t: float, x: float, needed_cap: float) -> cg.ConvexBody:
        """Truncated epigraph on the cap ladder, capped at or above needed_cap."""
        t, x = float(t), float(x)
        rung = _rung_index(np.array([needed_cap], dtype=float), self.slice(t, x).min_value())
        return self._rung(t, x, int(rung[0]))

    def e_points(self, ts, xs, Z: np.ndarray) -> np.ndarray:
        """Selections e = Steiner point of P(z, E) for an (N, 2) stack of
        (scaled) controls, row i at (ts[i], xs[i]); a scalar t or x serves
        every row.

        Each row keeps the slice and cap ladder of its own (t, x). A
        preliminary epigraph capped above max(|z_eta|, min L) + 10 sorts
        out the rows inside E, which map to themselves; the others are
        selected against E capped above max(|z_eta|, min L) + 6 d + 1 by
        `convex_geom.steiner_selection` (a second distance, then the exact
        Steiner kernel with radius 2 d(z, E)). The rung bodies of all rows
        are stacked, so each of the two distances and the Steiner step is
        one kernel call.
        """
        out = np.array(Z, dtype=float)
        slabs, slab_of = row_slabs(ts, xs, len(out))
        lmin = np.array([self.slice(t, x).min_value() for t, x in slabs])[slab_of]
        if len(out) == 0:
            return out
        caps = np.maximum(np.abs(out[:, 1]), lmin) + 10.0
        stack, owner = self._rung_stack(slabs, slab_of, caps, lmin)
        d = cg.distance(out, stack, owner)
        far = np.nonzero(d > 0.0)[0]
        if len(far) == 0:
            return out
        caps = np.maximum(np.abs(out[far, 1]), lmin[far]) + 6.0 * d[far] + 1.0
        stack, owner = self._rung_stack(slabs, slab_of[far], caps, lmin[far])
        out[far] = cg.steiner_selection(out[far], stack, owner)
        return out

    def lift_points(self, t: float, x: float) -> np.ndarray:
        nodes, vals = self.slice(t, x).finite_slice()
        return np.stack([nodes, vals], axis=1)


def _control_rows(a, kind: str):
    """A control point (2,) or stack (N, 2) as an array and its (N, 2)
    rows; ConfigError on another shape, or naming the first row with a
    non-finite coordinate."""
    a = np.asarray(a, dtype=float)
    if a.ndim > 2 or a.shape[-1:] != (2,):
        raise ConfigError(f"{kind} control points are 2-vectors")
    rows = a.reshape(-1, 2)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if len(bad):
        raise ConfigError(f"{kind} control row {bad[0]} is not finite: {rows[bad[0]].tolist()}")
    return a, rows


_CAP_NOTE = "power-of-two ladder over max(|a_eta|, min L) + 3*(2 d) + 1"


def build_noncompact(
    spec: HamiltonianSpec,
    grids: GridPolicy | None = None,
    plan: APlan | None = None,
) -> RepresentationTriple:
    """Full-space control representation: A = R^2, M = 1, e = Steiner point
    of P(a, truncated E_L(t,x)). Lift points a = (v, L(v)) map to themselves."""
    _require_flags(spec, ("H1", "H2", "H3", "HLC"))
    policy = grids or GridPolicy()
    core = _SliceCore(spec, policy)
    plan = plan or APlan()
    control = ControlSet("full_space", 2)

    def e_eval(ts, xs, a):
        z, rows = _control_rows(a, "full-space")
        return core.e_points(ts, xs, rows).reshape(z.shape)

    def samples(t, x):
        return np.concatenate([control.samples(plan), core.lift_points(t, x)], axis=0)

    return RepresentationTriple(
        control=control,
        e_eval=e_eval,
        provenance="constructed-noncompact",
        source=spec,
        caps=_CAP_NOTE,
        control_samples=samples,
        grid_h=core.grid_h,
        _core=core,
    )


def scaling_bound(spec: HamiltonianSpec, t: float, x: float) -> float:
    """M(t,x) = |lambda| + |H(t,x,0)| + c(t)(1+|x|) + 1, lambda the spec's
    bound: the scaled unit ball then covers the bounded epigraph slice
    below lambda."""
    h0 = float(np.asarray(spec.eval(t, x, np.array([0.0])), dtype=float)[0])
    lam = float(spec.lambda_bound.eval(t, x))
    return abs(lam) + abs(h0) + float(spec.modulus.c(t)) * (1.0 + abs(x)) + 1.0


def build_compact(
    spec: HamiltonianSpec,
    grids: GridPolicy | None = None,
    plan: APlan | None = None,
) -> RepresentationTriple:
    """Unit-ball control representation scaled by M(t, x).

    Requires the growth bound c(t) (MissingC otherwise) and the spec's
    Lagrangian bound lambda(t, x) (ConfigError otherwise); slices violating
    lambda raise BLCViolation when first touched."""
    _require_flags(spec, ("H1", "H2", "H3", "H4", "HLC"))
    if spec.modulus.c is None:
        raise MissingC(f"{spec.name} carries no growth bound c(t)")
    if spec.lambda_bound is None:
        raise ConfigError(f"{spec.name} has no lambda bound")
    policy = grids or GridPolicy()
    core = _SliceCore(spec, policy, lam=spec.lambda_bound.eval)
    plan = plan or APlan()
    control = ControlSet("unit_ball", 2)

    def M(t, x):
        return scaling_bound(spec, t, x)

    def e_eval(ts, xs, a):
        a, rows = _control_rows(a, "unit-ball")
        if np.any(rows[:, 0] * rows[:, 0] + rows[:, 1] * rows[:, 1] > 1.0 + 1e-9):
            raise ConfigError("control point outside the unit ball")
        slabs, slab_of = row_slabs(ts, xs, len(rows))
        m = np.array([M(t, x) for t, x in slabs])[slab_of, None]
        return core.e_points(ts, xs, m * rows).reshape(a.shape)

    def samples(t, x):
        m = M(t, x)
        lifts = core.lift_points(t, x)
        lifts = lifts[np.linalg.norm(lifts, axis=1) <= m] / m
        return np.concatenate([control.samples(plan), lifts], axis=0)

    return RepresentationTriple(
        control=control,
        e_eval=e_eval,
        provenance="constructed-compact",
        source=spec,
        caps=_CAP_NOTE,
        scaling=M,
        control_samples=samples,
        grid_h=core.grid_h,
        _core=core,
    )


def build(
    kind: str,
    spec: HamiltonianSpec,
    grids: GridPolicy | None = None,
    plan: APlan | None = None,
) -> RepresentationTriple:
    """The triple of either construction: kind "compact" or "noncompact"."""
    return (build_compact if kind == "compact" else build_noncompact)(spec, grids, plan)


def reconstruct_H(
    triple: RepresentationTriple,
    t: float,
    x: float,
    p: float,
    a_samples: np.ndarray | None = None,
) -> float:
    """sup over the sample plan of p f(t,x,a) - l(t,x,a); monotone in the
    plan and, for constructed triples, never above H(t,x,p) + grid error."""
    _, F, L = triple.e_table(t, x, a_samples)
    return float(np.max(p * F - L))


def induced_H(
    triple: RepresentationTriple,
    t: float,
    x: float,
    p_values: np.ndarray,
) -> np.ndarray:
    """H induced by the triple: max over its default control samples of
    p f - l."""
    _, F, Lv = triple.e_table(t, x)
    p = np.asarray(p_values, dtype=float)
    return np.max(p[:, None] * F[None, :] - Lv[None, :], axis=1)


def image_of_controls(triple: RepresentationTriple, t: float, x: float) -> ImageReport:
    """Interval hull of the f-values of the default control samples and its
    Hausdorff gap against the source's effective domain, read from the
    triple's slices."""
    _, F, _ = triple.e_table(t, x)
    F = np.sort(F)
    lo, hi = float(F[0]), float(F[-1])
    ref = triple.slices.domain(t, x)
    r_lo = ref.lo if np.isfinite(ref.lo) else lo
    r_hi = ref.hi if np.isfinite(ref.hi) else hi
    # Hausdorff between the sampled f-set and the reference interval
    outward = max(0.0, r_lo - lo, hi - r_hi)
    inward = max(0.0, lo - r_lo, r_hi - hi)
    if len(F) > 1:
        inward = max(inward, 0.5 * float(np.max(np.diff(F))))
    dom = EffectiveDomain(lo, hi, True, True)
    return ImageReport(domain=dom, gap=max(outward, inward))


def _draw_pair_controls(triple: RepresentationTriple, rng: np.random.Generator) -> np.ndarray:
    kind = triple.control.kind
    if kind == "unit_ball":
        raw = rng.normal(size=(2, 2))
        nrm = np.linalg.norm(raw, axis=1, keepdims=True)
        return raw / np.maximum(nrm, 1e-12) * rng.uniform(0.0, 1.0, (2, 1))
    if kind == "full_space":
        return rng.uniform(-2.0, 2.0, (2, 2))
    if kind == "interval":
        return rng.uniform(triple.control.lo, triple.control.hi, (2, 1))
    pts = triple.control.points
    return pts[rng.integers(0, len(pts), 2)]


def lagrangian_access(triple: RepresentationTriple) -> Callable:
    """(t, x) -> vectorized L(t, x, .), consistent with the triple's own
    discretization: a constructed triple's trusted v-grid slice (the
    ConvexGridFunction it was built from), else the pointwise L of the
    triple's slices."""
    if triple._core is not None:
        return triple._core.slice
    slices = triple.slices
    return lambda t, x: (lambda vs: np.asarray(slices.values(t, x, vs), dtype=float))


def verify_triple(
    triple: RepresentationTriple,
    window: Window,
    plan: SamplePlan | None = None,
    n_pairs: int = 48,
    l_tol: float = 2e-2,
    lip_slack: float = 5e-3,
    image_gap_tol: float = 5e-2,
) -> list[CheckReport]:
    """Five-way faithfulness audit of a representation triple.

    (i) l stays above -|H(t,x,0)|; (ii) |f| respects the growth bound;
    (iii) Lipschitz quotients against 10(n+1)[k|x-y| + w(|x-y|) + |Ma-M'b|]
    (the scaled control difference reduces to |a-b| when M = 1); (iv)
    selected points lie in the epigraph up to max(2h, 1e-9); (v) the image
    of the control samples matches dom L up to a Hausdorff gap. A NaN
    margin fails its check, and so does n_pairs = 0 the Lipschitz one.
    """
    spec = triple.source
    plan = plan or SamplePlan()
    rng = plan.rng(7)
    t_lo, t_hi = window.t_range
    x_lo, x_hi = window.x_range
    R = max(abs(x_lo), abs(x_hi))
    mod = spec.modulus
    h = triple.grid_h
    reports: list[CheckReport] = []

    slabs = [
        (float(tv), float(xv))
        for tv, xv in zip(rng.uniform(t_lo, t_hi, 6), rng.uniform(x_lo, x_hi, 6))
    ]

    lower = Worst("triple_l_lower_bound")
    growth = Worst("triple_f_growth")
    image = Worst("triple_image_gap")
    for t, x in slabs:
        _, F, Lv = triple.e_table(t, x)
        h0 = abs(float(np.asarray(spec.eval(t, x, np.array([0.0])))[0]))
        lower.see(float(np.max(-Lv - h0)), {"t": t, "x": x, "min_l": float(np.min(Lv))})
        if mod.c is not None:
            max_f = float(np.max(np.abs(F)))
            growth.see(max_f - float(mod.c(t)) * (1.0 + abs(x)), {"t": t, "x": x, "max_abs_f": max_f})
        img = image_of_controls(triple, t, x)
        image.see(img.gap, {"t": t, "x": x, "image": [img.domain.lo, img.domain.hi]})
    reports.append(lower.report(l_tol))
    if mod.c is not None:
        reports.append(growth.report(2.0 * h + 1e-6))
    else:
        reports.append(
            CheckReport("triple_f_growth", 0.0, "skipped", [{"note": "missing (H4): no c(t) bound"}])
        )

    # every pair is drawn first, then each side is one batch of rows
    pairs = []
    for _ in range(n_pairs):
        t = float(rng.uniform(t_lo, t_hi))
        x = float(rng.uniform(x_lo, x_hi))
        y = float(rng.uniform(x_lo, x_hi))
        a, b = _draw_pair_controls(triple, rng)
        pairs.append((t, x, y, a, b))
    EA = EB = ()
    if pairs:
        ts, xs, ys, A, B = (np.array(col) for col in zip(*pairs))
        EA, EB = triple.e_eval(ts, xs, A), triple.e_eval(ts, ys, B)
    lip = Worst("triple_lipschitz")
    for (t, x, y, a, b), ea, eb in zip(pairs, EA, EB):
        lhs = float(np.linalg.norm(ea - eb))
        d = abs(x - y)
        Ma, Mb = triple.scaling(t, x), triple.scaling(t, y)
        scaled = float(np.linalg.norm(Ma * np.atleast_1d(a) - Mb * np.atleast_1d(b)))
        k = float(mod.k_R(R, t))
        w = float(mod.w_R(R, t, d))
        rhs = 10.0 * (spec.n + 1) * (k * d + w + scaled)
        wit = {
            "t": t,
            "x": x,
            "y": y,
            "lhs": lhs,
            "rhs_combined": rhs,
            "rhs_mixed": 5.0 * (spec.n + 1) * (2.0 * k * d + 2.0 * w + scaled),
        }
        if not lip.see(lhs - rhs, wit):
            break
    reports.append(lip.report(lip_slack, "no pair judged: n_pairs is 0"))

    L_of = lagrangian_access(triple)
    member = Worst("triple_membership")
    for t, x in slabs[:4]:
        _, F, Lv = triple.e_table(t, x)
        idx = np.arange(0, len(F), max(1, len(F) // 64))
        vals = L_of(t, x)(F[idx])
        member.see(float(np.max(np.where(np.isfinite(vals), vals - Lv[idx], np.inf))), {"t": t, "x": x})
    reports.append(member.report(max(2.0 * h, 1e-9)))
    reports.append(image.report(image_gap_tol))
    return reports


def sandwich_check(
    triple: RepresentationTriple,
    t: float,
    x: float,
    tol: float = 5e-2,
) -> CheckReport:
    """Two-sided inclusion audit for a compact-control triple at one (t, x):
    the bounded epigraph below lambda sits inside the hull of the sampled
    e-values, which sits inside the (truncated) epigraph, both within tol.
    """
    from .fenchel import build_bounded_epigraph

    core: _SliceCore | None = triple._core
    if core is None or core.lam is None:
        raise ConfigError("sandwich_check needs a compact-control constructed triple")
    fn = core.slice(t, x)
    lam_val = float(core.lam(t, x))
    lower = build_bounded_epigraph(fn, lam_val)
    _, F, Lv = triple.e_table(t, x)
    hull = cg.ConvexBody(np.stack([F, Lv], axis=1))
    cap = float(np.max(Lv)) + 1.0
    outer = core.epigraph(t, x, cap)
    gap_lower = cg.containment_gap(hull, lower)
    gap_outer = cg.containment_gap(outer, hull)
    wit = {
        "t": float(t),
        "x": float(x),
        "lambda": lam_val,
        "bounded_in_hull_gap": float(gap_lower),
        "hull_in_epigraph_gap": float(gap_outer),
    }
    worst = Worst("sandwich")
    worst.see(gap_lower, wit)
    worst.see(gap_outer, wit)
    return worst.report(tol)
