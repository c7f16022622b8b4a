"""Grid-based Legendre-Fenchel machinery in one variable.

Convex functions of the momentum (or velocity) variable are carried as
values on uniform grids with +inf marking points outside the effective
domain. A grid builds its nodes once and shares them read-only, and a grid
function keeps the bounds of its finite run, so the per-slice cost is the
sampling and the hull, not repeated node and mask arrays. The conjugate is the exact maximum over finite nodes, so conjugates
are convex by construction and every bound proved for the continuous
transform holds here up to grid resolution h. It is computed as Lucet's
linear-time Legendre transform (Numer. Algorithms 16, 1997): the maximum
over the nodes is attained on the lower convex hull of the sampled graph,
at the vertex where the hull slopes pass the query slope. Each grid
function builds that hull once, on its first query, and every later query
is a slope search.

`LagrangianSlices` is the one path from a Hamiltonian to its Lagrangian
slices L(t, x, .) = H(t, x, .)*: closed forms where the Hamiltonian has
them, else H sampled on the p-grid, its trust interval, L pointwise, its
exact minimum over windows and L on velocity grids, whose half-width rule
it owns.

Epigraphs and bounded epigraph slices are materialized as polygon bodies in
the (v, eta) plane; the lower boundary interpolates the sampled graph, so a
convex source function yields an inner polygonal approximation of the true
epigraph. Their vertices come from the same lower-hull scan, so no general
point-set hull is taken.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable

import numpy as np

from .convex_geom import _EPS_BASE, ConvexBody, _chain_lower_hull
from .errors import CapTooLow, GridUnderflow, ImproperFunction, UnboundedSummand

INF_THRESHOLD = 1e12


@dataclasses.dataclass(frozen=True)
class UniformGrid:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("grid bounds must be finite")
        if self.hi <= self.lo:
            raise ValueError("grid needs hi > lo")
        if self.count < 2:
            raise ValueError("grid needs at least 2 nodes")

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.count - 1)

    def nodes(self) -> np.ndarray:
        """The count nodes from lo to hi. They are built on the first call
        and kept on this grid instance, read-only, so every caller shares
        one array and none can change it for the others."""
        return self._nodes

    @functools.cached_property
    def _nodes(self) -> np.ndarray:
        nodes = np.linspace(self.lo, self.hi, self.count)
        nodes.flags.writeable = False
        return nodes


@dataclasses.dataclass(frozen=True)
class GridPolicy:
    """Discretization knobs: p_count nodes on the p-grid of every H sample,
    v_count on the v-grid of every Lagrangian slice."""

    p_count: int = 10001
    v_count: int = 601

    def p_grid(self) -> UniformGrid:
        """The p-grid every H sample lives on: p_count nodes over [-50, 50]."""
        return UniformGrid(-50.0, 50.0, self.p_count)


@dataclasses.dataclass(frozen=True)
class EffectiveDomain:
    """Interval hull of the finite nodes, with advisory endpoint flags."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True


class ConvexGridFunction:
    """Proper extended-real function sampled on a uniform grid.

    Values may be +inf (never -inf, never NaN); values at or above 1e12
    become +inf, and the finite nodes must form one contiguous run, whose
    bounds are kept so that `finite_slice` and `min_value` read plain
    slices. Convexity is not checked: a conjugate is convex by construction,
    and the tests hold every Lagrangian slice to it.
    """

    __slots__ = ("grid", "values", "_run", "_hull")

    def __init__(self, grid: UniformGrid, values):
        vals = np.asarray(values, dtype=float).copy()
        if vals.shape != (grid.count,):
            raise ValueError(f"values shape {vals.shape} vs grid count {grid.count}")
        # the minimum is NaN when any value is, and -inf when any value is;
        # values that stay below the threshold are all finite, so only
        # values reaching it need the mask and the contiguity scan
        if not vals.min() > -np.inf:
            raise ImproperFunction("values must avoid NaN and -inf")
        first, last = 0, len(vals)
        if vals.max() >= INF_THRESHOLD:
            big = vals >= INF_THRESHOLD
            vals[big] = np.inf
            idx = np.flatnonzero(~big)
            if len(idx) == 0:
                raise ImproperFunction("function is +inf everywhere on the grid")
            first, last = int(idx[0]), int(idx[-1]) + 1
            if last - first != len(idx):
                raise ImproperFunction("finite nodes must be contiguous")
        self.grid = grid
        self.values = vals
        self._run = slice(first, last)
        self._hull = None

    def _conjugate_hull(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes, values and edge slopes of the lower hull of the finite
        run, built on the first call and kept (values never change)."""
        if self._hull is None:
            self._hull = _slope_hull(*self.finite_slice())
        return self._hull

    def finite_slice(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and values of the finite run: views, the nodes read-only."""
        return self.grid.nodes()[self._run], self.values[self._run]

    def min_value(self) -> float:
        return float(np.min(self.values[self._run]))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """Inf-propagating linear interpolation between nodes."""
        v = np.asarray(v, dtype=float)
        g = self.grid
        out = np.full(v.shape, np.inf)
        inside = (v >= g.lo - 1e-12 * max(1, abs(g.lo))) & (
            v <= g.hi + 1e-12 * max(1, abs(g.hi))
        )
        if not np.any(inside):
            return out
        vv = np.clip(v[inside], g.lo, g.hi)
        pos = (vv - g.lo) / g.h
        i0 = np.clip(np.floor(pos).astype(int), 0, g.count - 1)
        frac = pos - i0
        at_node = frac <= 1e-9
        i1 = np.clip(i0 + 1, 0, g.count - 1)
        hi_node = frac >= 1.0 - 1e-9
        f0 = self.values[i0]
        f1 = self.values[i1]
        with np.errstate(invalid="ignore"):
            res = np.where(
                at_node,
                f0,
                np.where(hi_node, f1, f0 + frac * (f1 - f0)),
            )
        # 0*inf guards: any inf neighbor poisons a strictly interior point
        interior_bad = (~at_node) & (~hi_node) & ((~np.isfinite(f0)) | (~np.isfinite(f1)))
        res[interior_bad] = np.inf
        out[inside] = res
        return out


_PRUNE_PASSES = 32


def _lower_hull(x: np.ndarray, y: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Indices of the lower convex hull of the points (x_i, y_i); x must
    rise strictly.

    Vectorized pruning: each pass drops every interior point whose turn
    from its current predecessor to its current successor is at most eps
    (cross <= eps), so eps = 0 keeps exactly the strictly convex corners.
    Passes repeat until none is dropped; input whose turns all exceed eps
    returns after one pass. Dropping many points at once is safe only
    because x rises strictly: within a maximal run of dropped points the
    edge slopes do not increase, so the run lies on or above the chord
    between the survivors at its ends. For general point sets (repeated
    or unsorted x, as in `convex_geom.convex_hull`) that argument fails
    and simultaneous dropping can remove true vertices. A deep drop (one
    low point behind a long convex run) peels one point per pass, so
    after 32 passes the sequential chain, the one `convex_hull` scans,
    finishes on the survivors.
    """
    # the first pass reads x and y themselves; later ones their survivors
    idx, xs, ys = None, x, y
    for _ in range(_PRUNE_PASSES):
        if len(xs) < 3:
            break
        dx, dy = xs[1:-1] - xs[:-2], ys[1:-1] - ys[:-2]
        keep = dx * (ys[2:] - ys[:-2]) - dy * (xs[2:] - xs[:-2]) > eps
        if np.all(keep):
            break
        kept = np.concatenate(([True], keep, [True]))
        idx = np.flatnonzero(kept) if idx is None else idx[kept]
        xs, ys = x[idx], y[idx]
    else:
        return idx[_chain_lower_hull(xs, ys, eps)]
    return np.arange(len(x)) if idx is None else idx


def _slope_hull(nodes: np.ndarray, vals: np.ndarray):
    # sampled slopes that already rise (every smooth convex H) make every
    # node a hull vertex; rounding noise on a linear piece needs the scan
    slopes = np.diff(vals) / np.diff(nodes)
    if np.any(slopes[1:] < slopes[:-1]):
        idx = _lower_hull(nodes, vals)
        nodes, vals = nodes[idx], vals[idx]
        slopes = np.diff(vals) / np.diff(nodes)
    return nodes, vals, slopes


def conjugate_values(fn: ConvexGridFunction, points) -> np.ndarray:
    """Pointwise conjugate sup_p <w, p> - fn(p) over the finite grid nodes.

    The maximum is exact for the discrete sup: it sits on the lower hull
    of the finite nodes (cached on fn), at the vertex k whose incoming
    slope is below w and outgoing slope is not, so each query is a binary
    search on the hull slopes. Vertex k - 1 is compared as well, which
    absorbs rounding in the slopes. Results at or above 1e12 become +inf.
    """
    w = np.atleast_1d(np.asarray(points, dtype=float))
    nodes, vals, slopes = fn._conjugate_hull()
    k = np.searchsorted(slopes, w)
    j = np.maximum(k - 1, 0)
    out = np.maximum(w * nodes[k] - vals[k], w * nodes[j] - vals[j])
    out[out >= INF_THRESHOLD] = np.inf
    return out


# (v, u) pairs per block of `epi_sum`: each temporary stays near 128 kB, in
# cache. On criterion 3's case a call took 4 ms, against 10 ms at 1 << 16
# and 14 ms with 1,000,000 pairs, whose temporaries set `continuity`'s peak
_EPI_BLOCK = 1 << 14


def epi_sum(f1: ConvexGridFunction, f2: ConvexGridFunction) -> ConvexGridFunction:
    """Epigraphical (infimal-convolution) sum on f1's grid.

    out(v) = min over f1-nodes u of f1(u) + f2(v - u), with f2 evaluated by
    inf-propagating linear interpolation. The summand f2 must have a bounded
    domain visible inside its window: a finite value at either end node of
    its grid raises UnboundedSummand. The (v, u) table runs in blocks of
    about _EPI_BLOCK pairs; each node's minimum is the same in any block.
    """
    v2 = f2.values
    if np.isfinite(v2[0]) or np.isfinite(v2[-1]):
        raise UnboundedSummand(
            "dom f2 touches its window boundary; bounded domain required"
        )
    u, fu = f1.finite_slice()
    out_nodes = f1.grid.nodes()
    out = np.empty(len(out_nodes))
    chunk = max(1, _EPI_BLOCK // max(1, len(u)))
    for s in range(0, len(out_nodes), chunk):
        z = out_nodes[s : s + chunk, None] - u[None, :]
        vals = fu[None, :] + f2(z)
        out[s : s + chunk] = np.min(vals, axis=1)
    if not np.any(np.isfinite(out)):
        raise ImproperFunction("epigraphical sum is +inf on the whole window")
    return ConvexGridFunction(f1.grid, out)


def slope_range(fn: ConvexGridFunction) -> tuple[float, float]:
    """One-sided slopes at the ends of the finite run.

    For a convex source these bracket every subgradient the window can
    witness, i.e. the trusted part of the conjugate's domain: beyond them
    the numeric conjugate is a linear extension, not data.
    """
    nodes, vals = fn.finite_slice()
    if len(vals) < 2:
        return 0.0, 0.0
    h = fn.grid.h
    return float((vals[1] - vals[0]) / h), float((vals[-1] - vals[-2]) / h)


def _widened_chords(vals: np.ndarray, h: float):
    """The first and last chord slopes of samples at spacing h (along the
    last axis; 0 for fewer than two), each widened by its rounding bound
    4 eps (|H_a| + |H_b|)/h over its two samples H_a, H_b, so that an
    exact end is never cut off."""
    if vals.shape[-1] < 2:
        return 0.0, 0.0
    a, b, y, z = vals[..., 0], vals[..., 1], vals[..., -2], vals[..., -1]
    scale = 4.0 * np.finfo(float).eps / h
    return (b - a) / h - scale * (abs(a) + abs(b)), (z - y) / h + scale * (abs(y) + abs(z))


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
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    for _ in range(72):
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        f12 = _finite(f(np.concatenate([m1, m2])))
        move_lo = f12[: len(lo)] > f12[len(lo) :]
        lo, hi = np.where(move_lo, m1, lo), np.where(move_lo, hi, m2)
    mid = 0.5 * (lo + hi)
    return mid, _finite(f(mid))


def row_slabs(ts, xs, n: int):
    """The distinct (t, x) of n rows, in order of first appearance (a
    scalar t or x serves every row), and each row's index into them."""
    if np.ndim(ts) == 0 and np.ndim(xs) == 0:
        return [(float(ts), float(xs))], np.zeros(n, dtype=np.intp)
    if n == 0:
        return [], np.zeros(0, dtype=np.intp)
    t = np.broadcast_to(np.asarray(ts, dtype=float), (n,))
    x = np.broadcast_to(np.asarray(xs, dtype=float), (n,))
    # a stable sort by (t, x) starts each run of equal pairs at its first row
    by = np.lexsort((x, t))
    ts_by, xs_by = t[by], x[by]
    starts = np.flatnonzero(np.r_[True, (ts_by[1:] != ts_by[:-1]) | (xs_by[1:] != xs_by[:-1])])
    first = by[starts]
    firsts = np.sort(first)
    slab_of = np.empty(n, dtype=np.intp)
    slab_of[by] = np.repeat(np.searchsorted(firsts, first), np.diff(np.r_[starts, n]))
    return list(zip(t[firsts].tolist(), x[firsts].tolist())), slab_of


class LagrangianSlices:
    """The Lagrangian slices L(t, x, .) = H(t, x, .)* of one Hamiltonian
    spec (a `zoo.HamiltonianSpec`: eval, oracle_L, oracle_dom, modulus.c)
    on the grids of one `GridPolicy`: H sampled on its p-grid, L on
    v-grids of its v_count nodes.

    L comes from oracle_L and the domain from oracle_dom when the spec has
    them, else from H(t, x, .) sampled on the p-grid, whose conjugate is
    data only on the trust interval between the sample's edge slopes
    (`slope_range`). The v-window half-width is c(t)(1 + r) + 1 with the
    growth bound c, else max |edge slope| + 1. Every query but `on_grid`
    reads one kept sample per (t, x); `on_grid` keeps nothing, so callers
    cache the grid slices they reuse.
    """

    def __init__(self, spec, grids: GridPolicy):
        self.spec = spec
        self.grids = grids
        self.p_grid = grids.p_grid()
        self._kept: dict[tuple[float, float], ConvexGridFunction] = {}

    def _sample(self, t: float, x: float) -> ConvexGridFunction:
        vals = np.asarray(self.spec.eval(t, x, self.p_grid.nodes()), dtype=float)
        return ConvexGridFunction(self.p_grid, vals)

    def _kept_sample(self, t: float, x: float) -> ConvexGridFunction:
        key = (float(t), float(x))
        if key not in self._kept:
            self._kept[key] = self._sample(t, x)
        return self._kept[key]

    def _halfwidth(self, t: float, r: float, trust: Callable[[], tuple[float, float]]) -> float:
        c = self.spec.modulus.c
        return float(c(t)) * (1.0 + r) + 1.0 if c is not None else max(map(abs, trust())) + 1.0

    def trust(self, t: float, x: float) -> tuple[float, float]:
        """Trust interval of L(t, x, .): the edge slopes of the H sample."""
        return slope_range(self._kept_sample(t, x))

    def halfwidth(self, t: float, x: float, r: float | None = None) -> float:
        """Half-width of the symmetric v-window that holds dom L(t, y, .)
        for |y| <= r (r = |x| unless given) with a unit margin."""
        return self._halfwidth(t, abs(x) if r is None else r, lambda: self.trust(t, x))

    def domain(self, t: float, x: float) -> EffectiveDomain:
        """dom L(t, x, .): the oracle's, else the trust interval with each
        end widened by the rounding bound of its edge slope, so that a
        one-point domain (H affine in p) is never inverted (its closedness
        flags advisory)."""
        if self.spec.oracle_dom is not None:
            return self.spec.oracle_dom(t, x)
        return EffectiveDomain(*map(float, _widened_chords(self._kept_sample(t, x).finite_slice()[1], self.p_grid.h)))

    def bounded_domain(self, t: float, x: float) -> tuple[float, float]:
        """dom L(t, x, .) with each infinite end clamped at the half-width."""
        dom = self.domain(t, x)
        if np.isfinite(dom.lo) and np.isfinite(dom.hi):
            return dom.lo, dom.hi
        w = self.halfwidth(t, x)
        return (dom.lo if np.isfinite(dom.lo) else -w), (dom.hi if np.isfinite(dom.hi) else w)

    def values(self, ts, xs, v) -> np.ndarray:
        """L(t, x, v) pointwise, with ts and xs broadcasting to the shape
        of v (a scalar serves every entry): the oracle's in one call, else
        the conjugate of the kept H sample (see conjugate_values), one call
        per distinct (t, x). Each entry is the one a call at its own (t, x)
        gives."""
        v = np.asarray(v, dtype=float)
        if self.spec.oracle_L is not None:
            return self.spec.oracle_L(ts, xs, v)
        t, x = np.broadcast_arrays(np.asarray(ts, dtype=float), np.asarray(xs, dtype=float))
        pairs, slab_of = row_slabs(t.ravel(), x.ravel(), t.size)
        ids = np.broadcast_to(slab_of.reshape(t.shape), v.shape).ravel()
        order = np.argsort(ids, kind="stable")
        ends = np.cumsum(np.bincount(ids, minlength=len(pairs))).tolist()
        flat_v, out = v.ravel(), np.empty(v.size)
        for (tk, xk), s, e in zip(pairs, [0] + ends, ends):
            rows = order[s:e]
            out[rows] = conjugate_values(self._kept_sample(tk, xk), flat_v[rows])
        return out.reshape(v.shape)

    def window_min(self, ts, xs, u0, u1) -> np.ndarray:
        """Minimum of L(t, x, .) over each window [u0_i, u1_i], u1 >= u0,
        one (t, x) per window (a scalar serves every one), NaN read as +inf.

        argmin L = dH(t, x, 0) (Rockafellar, Convex Analysis, Thm 23.5), so
        with one minimizer m per distinct (t, x) each minimum is L at
        clip(m, u0, u1), one `values` query over every window. The numeric
        route reads m off the kept sample's lower hull, as the slope of its
        edge over p = 0: an exact argmin of the discrete conjugate. The oracle
        route searches oracle_L once per slice, on the hull of its windows
        cut to the three-chord bracket of dH(0): the chords of H over [-h, 0]
        and [0, h] (h the p-grid spacing), each widened by its rounding bound."""
        u0, u1 = np.asarray(u0, dtype=float), np.asarray(u1, dtype=float)
        pairs, slab_of = row_slabs(ts, xs, len(u0))
        if self.spec.oracle_L is None:
            hulls = [self._kept_sample(t, x)._conjugate_hull() for t, x in pairs]
            m = np.array([np.r_[-np.inf, s, np.inf][np.searchsorted(n, 0.0)] for n, _, s in hulls])
        else:
            # a slice whose windows are all NaN (a NaN k_R) keeps a NaN hull
            lo, hi = np.full(len(pairs), np.nan), np.full(len(pairs), np.nan)
            np.fmin.at(lo, slab_of, u0)
            np.fmax.at(hi, slab_of, u1)
            h = self.p_grid.h
            H = np.array([self.spec.eval(t, x, np.array([-h, 0.0, h])) for t, x in pairs], dtype=float)
            c_lo, c_hi = _widened_chords(H, h)
            t_s, x_s = np.array(pairs, dtype=float).reshape(-1, 2).T

            def f(u):  # the flat stack [m1, m2] of the search, or its midpoints
                return self.values(t_s, x_s, u.reshape(-1, len(pairs))).ravel()

            m, _ = _convex_argmin(f, np.clip(c_lo, lo, hi), np.clip(c_hi, lo, hi))
        return _finite(self.values(ts, xs, np.clip(m[slab_of], u0, u1)))

    def on_grid(self, t: float, x: float, halfwidth: float | None = None, trusted: bool = True) -> ConvexGridFunction:
        """Numeric L(t, x, .) on the v-grid of v_count nodes over [-w, w].

        w is halfwidth, or the half-width rule at r = |x| when it is None,
        read from a fresh sample. The raw slice (trusted False) is the grid
        conjugate on the whole window. The trusted slice is +inf outside
        the trust interval, each end widened by the rounding bound of its
        edge slope so that a node on an exact end stays; an interval that
        falls between two nodes keeps the node nearest its midpoint, and
        one that misses the window raises GridUnderflow.
        """
        hfn = self._sample(t, x)
        s_lo, s_hi = slope_range(hfn)
        w = self._halfwidth(t, abs(x), lambda: (s_lo, s_hi)) if halfwidth is None else halfwidth
        grid = UniformGrid(-w, w, self.grids.v_count)
        nodes = grid.nodes()
        vals = conjugate_values(hfn, nodes)
        if trusted:
            lo, hi = _widened_chords(hfn.finite_slice()[1], self.p_grid.h)
            keep = (nodes >= lo) & (nodes <= hi)
            if not np.any(keep):
                if s_lo > grid.hi or s_hi < grid.lo:
                    raise GridUnderflow(f"trusted domain [{s_lo:.3g}, {s_hi:.3g}] misses the window")
                keep[int(np.argmin(np.abs(nodes - 0.5 * (s_lo + s_hi))))] = True
            vals[~keep] = np.inf
        return ConvexGridFunction(grid, vals)


def build_epigraph(fn: ConvexGridFunction, cap: float) -> ConvexBody:
    """Polygon for {(v, eta) : fn(v) <= eta <= cap}: the truncated epigraph,
    or at a cap equal to min fn its argmin segment or point (the bounded
    slice below lambda of a compact triple may be one). Raises CapTooLow
    when the cap is below min fn.
    """
    if cap < fn.min_value():
        raise CapTooLow(f"cap {cap} < min value {fn.min_value()}")
    nodes = fn.grid.nodes()
    vals = fn.values
    finite = np.isfinite(vals)
    keep = finite & (vals <= cap)
    idx = np.nonzero(keep)[0]
    graph = np.stack([nodes[idx], vals[idx]], axis=1)

    i0, i1 = idx[0], idx[-1]
    if i0 > 0 and finite[i0 - 1]:
        # graph crosses the cap between i0-1 and i0
        t = (cap - vals[i0 - 1]) / (vals[i0] - vals[i0 - 1])
        v_left = nodes[i0 - 1] + t * (nodes[i0] - nodes[i0 - 1])
    else:
        v_left = nodes[i0]
    if i1 < len(nodes) - 1 and finite[i1 + 1]:
        t = (cap - vals[i1 + 1]) / (vals[i1] - vals[i1 + 1])
        v_right = nodes[i1 + 1] + t * (nodes[i1] - nodes[i1 + 1])
    else:
        v_right = nodes[i1]
    top_left = np.array([v_left, cap])
    top_right = np.array([v_right, cap])

    # The hull of these points is the lower chain from the left cap point
    # (or from the first node, when the graph ends below the cap) to the
    # right cap point, closed by the cap edge. Unlike the exact general
    # hull, it drops turns up to eps, merging the rounding-noise vertices on
    # the linear pieces of L: 9 vertices where the exact hull keeps 15 on
    # ex_2_1's trusted slice at x = 0.15, capped at min L + 1.
    starts_on_cap = v_left < nodes[i0]
    pts = np.vstack(([top_left] if starts_on_cap else []) + [graph, top_right])
    scale = float(np.max(np.abs(pts)))
    eps = _EPS_BASE * max(1.0, scale * scale)
    loop = pts[_lower_hull(pts[:, 0], pts[:, 1], eps)]
    if not starts_on_cap and (v_right - v_left) * (cap - loop[0, 1]) > eps:
        loop = np.concatenate([loop, [top_left]])
    # a flat slice is a segment or a point: leave it to the general hull
    d = top_right - loop[0]
    spread = np.abs((loop[:, 0] - loop[0, 0]) * d[1] - (loop[:, 1] - loop[0, 1]) * d[0])
    if len(loop) < 3 or float(np.max(spread)) <= eps:
        return ConvexBody(np.vstack([pts, top_left]))
    return ConvexBody._from_loop(loop)
