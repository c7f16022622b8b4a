"""Reference values recomputed from first principles for the test suite.

Apart from the slice oracles, the ones handed a triple or an evaluator,
and the former library kernels, nothing here calls into the package. The
former library kernels are `support`, `restrict`, the grid conjugate
`grid_conjugate` with the `midpoint_defect` bound it was once checked
against, the modulus scaling `scaled_modulus`, `project_point`,
`inside_mask`, `body_scale`, the polygonized disc `ball`, the polygonized
projection map `proj_map` with its `arc_deg` arc resolution, the box
corners `inflate_candidates` that the inflation once hulled, and the
eps-tolerant hull `numpy_row_convex_hull`: they left the package when
nothing in it called them any more, or when one chain scan, one pass over
an ordered loop or an exact orientation test replaced them, and they stay
here as references on the package's bodies and grid functions. The slice
oracles compose
the package's grid primitives (a sampled H, its conjugate, its edge
slopes) the way each caller once wrote them out inline, so the slice
service can be held to them bit for bit. The conjugate oracles are a
brute maximum over a dense p grid and the chunked all-pairs maximum over
the finite nodes of a sampled function, the hull oracles are the
sequential monotone chains (the lower chain over sorted x, and the
general 2D hull with exact `Fraction` turns), the Steiner oracles are the polygon
exterior-angle formula, a support-point quadrature over a polygonized
E cap B(z, r) and the closed form written for one body alone, the
Hausdorff oracle works on raw vertex arrays with segment arithmetic, the
distance oracle measures every point against every edge before its inside
test, the LLC window oracles are the former grid plus ternary search,
each window on its own, and the exact minimum over every kink of a
discrete conjugate, the Lipschitz oracle audits verify_triple's pairs one control
at a time through e_eval, and the representation oracles evaluate one
control at a time in scalar floats (the hand-written triples from their
formulas, a convexified triple from one evaluation per atom of a base
evaluator the test passes in), and the induced H over an explicit
control plan reads one e_eval call. Tests compare library output against
these so a regression cannot certify itself.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np

from hamrep import convex_geom as cg
from hamrep import fenchel as fl
from hamrep.errors import DimMismatch

# sup over |p| <= 50 of (0.1 p - H_2_3(t, 0, p)) sits at p = -50 where
# H = -2 sqrt(50); the true L(0.1) = 10 needs slope 100, outside the
# window, so the window-limited conjugate equals this smaller value
EX_2_3_WINDOW_VALUE = 2.0 * np.sqrt(50.0) - 5.0

# min over p of (sqrt(1+p^2) + 0.5|p| + 0.1) = 1.1 at p = 0, so the
# conjugate of that sum at v = 0 is exactly -1.1
EPISUM_SUM_AT_ZERO = -1.1

# exterior angles pi/2, 3pi/4, 3pi/4 weight the vertices into
# (3pi/4)(1,1)/(2pi)
STEINER_TRIANGLE = np.array([0.375, 0.375])
STEINER_SQUARE = np.array([0.5, 0.5])


def brute_conjugate(h_of_p, v, p_lo=-50.0, p_hi=50.0, n=200001):
    """sup of p*v - h(p) over a dense uniform grid; no convexity used.

    Parameters
    ----------
    h_of_p : callable
        Vectorized function of the p array.
    v : float
        Slope argument of the conjugate.

    Returns
    -------
    float
        Grid maximum; a lower bound on the window conjugate that is
        tight to O(window/n) for Lipschitz integrands.
    """
    ps = np.linspace(p_lo, p_hi, n)
    vals = ps * v - np.asarray(h_of_p(ps), dtype=float)
    return float(np.max(vals))


def brute_conjugate_values(nodes, values, points):
    """sup over the finite nodes of w p - f(p) for every query slope w.

    Every node is scanned for every query (no hull, no convexity), in
    blocks of about 2e6 pairs; results at or above 1e12 become +inf, as in
    the library.
    """
    fin = np.isfinite(values)
    p = np.asarray(nodes, dtype=float)[fin]
    f = np.asarray(values, dtype=float)[fin]
    w = np.atleast_1d(np.asarray(points, dtype=float))
    out = np.empty(len(w))
    chunk = max(1, 2_000_000 // len(p))
    for s in range(0, len(w), chunk):
        out[s : s + chunk] = np.max(w[s : s + chunk, None] * p[None, :] - f[None, :], axis=1)
    out[out >= 1e12] = np.inf
    return out


def monotone_chain_lower_hull(x, y, eps=0.0):
    """Indices of the lower hull of (x_i, y_i), x sorted, by one sequential
    monotone-chain scan: a point leaves the chain when the turn from its
    predecessor to the next point is at most eps (cross <= eps)."""
    xs, ys = np.asarray(x, dtype=float).tolist(), np.asarray(y, dtype=float).tolist()
    if len(xs) < 3:
        return np.arange(len(xs))
    out = [0, 1]
    for i in range(2, len(xs)):
        xi, yi = xs[i], ys[i]
        while len(out) >= 2:
            o, a = out[-2], out[-1]
            if (xs[a] - xs[o]) * (yi - ys[o]) - (ys[a] - ys[o]) * (xi - xs[o]) > eps:
                break
            out.pop()
        out.append(i)
    return np.asarray(out)


def numpy_row_convex_hull(points):
    """2D convex hull (CCW from the lexicographically smallest vertex) by
    the monotone chain over numpy row views, with the former library
    tolerance 1e-12 max(1, scale^2) and its collapse of an eps-collinear
    set to the extremes along its widest axis."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) == 1:
        return pts
    scale = float(np.max(np.abs(pts)))
    eps = 1e-12 * max(1.0, scale * scale)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    d = pts[-1] - pts[0]
    area = np.abs((pts[:, 0] - pts[0, 0]) * d[1] - (pts[:, 1] - pts[0, 1]) * d[0])
    if float(np.max(area)) <= eps:
        proj = pts[:, int(np.argmax(np.ptp(pts, axis=0)))]
        lo_i, hi_i = int(np.argmin(proj)), int(np.argmax(proj))
        return pts[[lo_i]] if lo_i == hi_i else pts[[lo_i, hi_i]]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= eps:
                out.pop()
            out.append(p)
        return out

    hull = half(pts)[:-1] + half(pts[::-1])[:-1]
    return np.asarray(hull if hull else [pts[0], pts[-1]], dtype=float)


def exact_convex_hull(points):
    """2D convex hull (CCW from the lexicographically smallest vertex) by
    the monotone chain over the rows in stable lexicographic order, each
    turn an exact `Fraction` cross product of the doubles: a point leaves
    when its turn is at most 0."""
    rows = sorted(np.asarray(points, dtype=float).tolist(), key=lambda p: (p[0], p[1]))
    if rows[0] == rows[-1]:
        return np.asarray(rows[:1])
    exact = [(Fraction(x), Fraction(y)) for x, y in rows]

    def chain(order):
        out = []
        for i in order:
            px, py = exact[i]
            while len(out) >= 2:
                (ox, oy), (ax, ay) = exact[out[-2]], exact[out[-1]]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                    break
                out.pop()
            out.append(i)
        return out[:-1]

    n = len(rows)
    return np.asarray([rows[i] for i in chain(range(n)) + chain(range(n - 1, -1, -1))])


def exterior_angle_steiner(verts):
    """Steiner point of a convex polygon from the exterior-angle formula.

    Each vertex is weighted by its exterior angle over 2 pi; the angles
    of a convex polygon sum to exactly 2 pi.
    """
    v = np.asarray(verts, dtype=float)
    m = len(v)
    out = np.zeros(2)
    total = 0.0
    for i in range(m):
        prev_e = v[i] - v[(i - 1) % m]
        next_e = v[(i + 1) % m] - v[i]
        ang = float(
            np.arctan2(
                prev_e[0] * next_e[1] - prev_e[1] * next_e[0],
                prev_e[0] * next_e[0] + prev_e[1] * next_e[1],
            )
        )
        out += v[i] * ang
        total += ang
    return out / total


def quadrature_disc_steiner(verts, center, radius, arc_deg=0.5, n_dirs=3600):
    """Steiner point of E cap B(center, radius) by direction quadrature.

    E is a CCW polygon given by its vertices (one or two vertices allowed).
    The candidates are the vertices inside the disc, the edge-circle
    crossings and the arc points at `arc_deg` spacing that lie in E; the
    result is the mean support point (argmax over the candidates) over
    `n_dirs` half-offset directions. Its error is about diam / n_dirs per
    corner plus the arc sagitta.
    """
    v = np.asarray(verts, dtype=float)
    c = np.asarray(center, dtype=float)
    r = float(radius)
    m = len(v)
    cand = [v[np.hypot(v[:, 0] - c[0], v[:, 1] - c[1]) <= r]]
    if m >= 2:
        a = v if m >= 3 else v[:1]
        e = np.roll(v, -1, axis=0) - v if m >= 3 else v[1:] - v[:1]
        rel = a - c
        qa = np.sum(e * e, axis=1)
        qb = 2.0 * np.sum(e * rel, axis=1)
        qc = np.sum(rel * rel, axis=1) - r * r
        disc = qb * qb - 4.0 * qa * qc
        ok = disc >= 0.0
        for sign in (-1.0, 1.0):
            t = (-qb[ok] + sign * np.sqrt(disc[ok])) / (2.0 * qa[ok])
            hit = (t >= 0.0) & (t <= 1.0)
            cand.append(a[ok][hit] + t[hit, None] * e[ok][hit])
    if m >= 3:
        n_arc = int(np.ceil(360.0 / arc_deg))
        theta = 2.0 * np.pi * (np.arange(n_arc) + 0.5) / n_arc
        arc = c + r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        e = np.roll(v, -1, axis=0) - v
        rel = arc[:, None, :] - v[None, :, :]
        cross = e[None, :, 0] * rel[:, :, 1] - e[None, :, 1] * rel[:, :, 0]
        cand.append(arc[np.all(cross >= 0.0, axis=1)])
    pts = np.concatenate(cand, axis=0)
    if len(pts) == 0:
        raise ValueError("the disc misses the polygon")
    phi = 2.0 * np.pi * (np.arange(n_dirs) + 0.5) / n_dirs
    dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    return pts[np.argmax(dirs @ pts.T, axis=1)].mean(axis=0)


def point_polygon_distance(q, verts):
    """Distance from q to a CCW polygon (one or two vertices allowed);
    0 inside."""
    v = np.asarray(verts, dtype=float)
    m = len(v)
    if m == 1:
        d = q - v[0]
        return float(np.hypot(d[0], d[1]))
    # a segment has no interior: only the edge distance counts
    inside = m >= 3
    best = np.inf
    for i in range(m):
        a, b = v[i], v[(i + 1) % m]
        e = b - a
        d = q - a
        if e[0] * d[1] - e[1] * d[0] < 0.0:
            inside = False
        len2 = float(e @ e)
        s = 0.0 if len2 == 0.0 else float(np.clip((d @ e) / len2, 0.0, 1.0))
        r = q - (a + s * e)
        best = min(best, float(np.hypot(r[0], r[1])))
    return 0.0 if inside else best


def dense_points_to_body(points, verts):
    """Distances from (N, 2) points to a CCW polygon (one or two vertices
    allowed), 0 inside, by the library's arithmetic done densely: the
    nearest point on every edge segment for every point, then 0 for the
    points left of every edge line within 1e-12 max(1, max |vertex|)
    times the edge length."""
    p = np.asarray(points, dtype=float)
    v = np.asarray(verts, dtype=float)
    if len(v) == 1:
        return np.hypot(p[:, 0] - v[0, 0], p[:, 1] - v[0, 1])
    a = v if len(v) >= 3 else v[:1]
    ab = (np.roll(v, -1, axis=0) if len(v) >= 3 else v[1:]) - a
    denom = np.maximum(ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1], 1e-300)
    rx = p[:, 0, None] - a[None, :, 0]
    ry = p[:, 1, None] - a[None, :, 1]
    t = np.clip((rx * ab[:, 0] + ry * ab[:, 1]) / denom, 0.0, 1.0)
    dx = rx - t * ab[:, 0]
    dy = ry - t * ab[:, 1]
    d2 = dx * dx + dy * dy
    d = np.sqrt(d2[np.arange(len(p)), np.argmin(d2, axis=1)])
    if len(v) >= 3:
        tol = 1e-12 * float(max(1.0, np.max(np.abs(v)))) * np.hypot(ab[:, 0], ab[:, 1])
        d[np.all(ab[None, :, 0] * ry - ab[None, :, 1] * rx >= -tol[None, :], axis=1)] = 0.0
    return d


def _oracle_turn(ux, uy, wx, wy):
    return np.arctan2(np.abs(ux * wy - uy * wx), ux * wx + uy * wy)


def per_body_disc_steiner(verts, centers, radii):
    """Steiner points of E cap B(c_i, r_i) for one CCW body E (one or two
    vertices allowed), by the library's closed form written for that body
    alone: np.roll edges, its own turns, and one bincount sum per term."""
    v = np.asarray(verts, dtype=float)
    C = np.atleast_2d(np.asarray(centers, dtype=float))
    R = np.broadcast_to(np.asarray(radii, dtype=float), (len(C),))
    if len(v) == 1:
        return np.repeat(v, len(C), axis=0)
    if len(v) == 2:
        ab = v[1] - v[0]
        rx = v[0, 0] - C[:, 0]
        ry = v[0, 1] - C[:, 1]
        qa = ab[0] * ab[0] + ab[1] * ab[1]
        hb = rx * ab[0] + ry * ab[1]
        sq = np.sqrt(np.maximum(hb * hb - qa * (rx * rx + ry * ry - R * R), 0.0))
        mid = 0.5 * (np.clip((-hb - sq) / qa, 0.0, 1.0) + np.clip((-hb + sq) / qa, 0.0, 1.0))
        return v[0] + mid[:, None] * ab
    n_rows = len(C)
    ab = np.roll(v, -1, axis=0) - v
    rx = v[None, :, 0] - C[:, 0, None]
    ry = v[None, :, 1] - C[:, 1, None]
    r2 = (R * R)[:, None]
    inside = rx * rx + ry * ry <= r2
    inside_next = np.roll(inside, -1, axis=1)
    qa = ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1]
    hb = rx * ab[:, 0] + ry * ab[:, 1]
    disc = hb * hb - qa * (rx * rx + ry * ry - r2)
    sq = np.sqrt(np.maximum(disc, 0.0))
    t0 = np.where(inside, 0.0, np.clip((-hb - sq) / qa, 0.0, 1.0))
    t1 = np.where(inside_next, 1.0, np.clip((-hb + sq) / qa, 0.0, 1.0))
    piece = inside | inside_next | ((disc > 0.0) & (t1 > t0))
    prev = np.roll(ab, 1, axis=0)
    vertex_turn = _oracle_turn(prev[:, 0], prev[:, 1], ab[:, 0], ab[:, 1])
    rows, cols = np.nonzero(inside)
    sx = np.zeros(n_rows)
    sy = np.zeros(n_rows)
    sx += np.bincount(rows, vertex_turn[cols] * rx[rows, cols], minlength=n_rows)
    sy += np.bincount(rows, vertex_turn[cols] * ry[rows, cols], minlength=n_rows)
    for t, mask, sign in ((t0, piece & ~inside, 1.0), (t1, piece & ~inside_next, -1.0)):
        rows, cols = np.nonzero(mask)
        qx = rx[rows, cols] + t[rows, cols] * ab[cols, 0]
        qy = ry[rows, cols] + t[rows, cols] * ab[cols, 1]
        turn = _oracle_turn(-qy, qx, ab[cols, 0], ab[cols, 1])
        sx += np.bincount(rows, turn * qx + sign * qy, minlength=n_rows)
        sy += np.bincount(rows, turn * qy - sign * qx, minlength=n_rows)
    return C + np.stack([sx, sy], axis=1) / (2.0 * np.pi)


def grid_ternary_window_min(f, u0, u1, n_u=65, iters=72):
    """Minimum of f (NaN read as +inf) over each window [u0_i, u1_i] by the
    search the package ran before its exact window minimum: the lowest of
    n_u evenly spaced nodes, then a ternary search of iters steps (both
    thirds probed in one call) and its final midpoint, whichever is lower.
    f maps an (n, k) stack of abscissas, row i inside window i, to their
    values; each window's result is the one it gets alone."""

    def finite(vals):
        vals = np.asarray(vals, dtype=float)
        return np.where(np.isnan(vals), np.inf, vals)

    lo, hi = np.asarray(u0, dtype=float), np.asarray(u1, dtype=float)
    nodes = lo[:, None] + np.linspace(0.0, 1.0, n_u)[None, :] * (hi - lo)[:, None]
    best = np.min(finite(f(nodes)), axis=1)
    for _ in range(iters):
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        f12 = finite(f(np.stack([m1, m2], axis=1)))
        move_lo = f12[:, 0] > f12[:, 1]
        lo, hi = np.where(move_lo, m1, lo), np.where(move_lo, hi, m2)
    return np.minimum(best, finite(f(0.5 * (lo + hi)[:, None]))[:, 0])


def kink_window_min(hfn, u0, u1):
    """Exact minimum of the discrete conjugate of the H sample hfn over
    each window [u0_i, u1_i], NaN read as +inf: that conjugate is
    piecewise linear with kinks at the edge slopes of the sample's lower
    hull, so its minimum is the lowest of its values at the window ends
    and at every kink inside, one window at a time."""
    nodes, vals, _ = hfn._conjugate_hull()
    kinks = np.diff(vals) / np.diff(nodes)
    out = np.empty(len(u0))
    for i, (lo, hi) in enumerate(zip(u0, u1)):
        at = fl.conjugate_values(hfn, np.r_[lo, hi, kinks[(kinks > lo) & (kinks < hi)]])
        out[i] = np.min(np.where(np.isnan(at), np.inf, at))
    return out


def all_corners_inflate(body, r_v, r_eta):
    """Minkowski sum of a body with the box [-r_v, r_v] x [-r_eta, r_eta]:
    the package's hull of every vertex plus every box corner (4n points)."""
    corners = np.array([[r_v, r_eta], [r_v, -r_eta], [-r_v, r_eta], [-r_v, -r_eta]], dtype=float)
    return cg.ConvexBody((body.vertices[:, None, :] + corners[None, :, :]).reshape(-1, 2))


def inflate_candidates(body, r_v, r_eta):
    """The points the former `convex_geom.minkowski_inflate` handed to the
    hull: vertex v plus each box corner whose closed quadrant meets the
    normal cone of v, in vertex order and, at each vertex, in the order
    (+, +), (+, -), (-, +), (-, -). The cone meets a quadrant when n_in,
    the outward normal of the edge into v, lies in it, or when its starting
    axis lies in the cone."""
    verts = body.vertices
    e_out = np.concatenate([verts[1:], verts[:1]]) - verts
    e_in = np.concatenate([e_out[-1:], e_out[:-1]])
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    # the axis each quadrant starts at: +x, -y, +y, -x
    axis, sign = np.array([0, 1, 1, 0]), np.array([1.0, -1.0, 1.0, -1.0])
    n_in_inside = (e_in[:, 1, None] * signs[:, 0] >= 0.0) & (e_in[:, 0, None] * signs[:, 1] <= 0.0)
    axis_inside = (e_in[:, axis] * sign >= 0.0) & (e_out[:, axis] * sign <= 0.0)
    corners = np.array([[r_v, r_eta], [r_v, -r_eta], [-r_v, r_eta], [-r_v, -r_eta]], dtype=float)
    return (verts[:, None, :] + corners[None, :, :])[n_in_inside | axis_inside]


def per_set_check_LLC(spec, R, samples, p_grid=None, tol=2e-2):
    """check_LLC one (triple, direction) at a time: the same probes and
    windows, each set's window minima found on their own, and the worst
    excess kept in loop order. L and its domain come from the spec's
    oracles when it has them, else from H sampled on p_grid; an unbounded
    domain is clamped at c(t)(1 + |x|) + 1, or at the sample's max |edge
    slope| + 1 without c. The oracle L is minimized by the former search,
    `grid_ternary_window_min`, and the numeric L exactly, by
    `kink_window_min`."""
    mod = spec.modulus
    grid = p_grid or fl.UniformGrid(-50.0, 50.0, 10001)
    kept = {}

    def h_slice(t, x):
        if (t, x) not in kept:
            kept[t, x] = inline_h_slice(spec.eval, t, x, grid)
        return kept[t, x]

    def L(t, x, v):
        if spec.oracle_L is not None:
            return spec.oracle_L(t, x, np.asarray(v, dtype=float))
        return fl.conjugate_values(h_slice(t, x), v)

    def dom(t, x):
        if spec.oracle_dom is not None:
            return spec.oracle_dom(t, x)
        return fl.EffectiveDomain(*inline_widened_trust(h_slice(t, x)))

    fracs = samples.unit_fractions()
    worst, wit, n_judged = -np.inf, [], 0
    for t, x, y in samples.triples(spec.t_range, R):
        for a, b in ((x, y), (y, x)):
            d = abs(a - b)
            kd, w = mod.k_R(R, t) * d, mod.w_R(R, t, d)
            dom_a, dom_b = dom(t, a), dom(t, b)
            lo, hi = dom_a.lo, dom_a.hi
            if not (np.isfinite(lo) and np.isfinite(hi)):
                if mod.c is not None:
                    W = float(mod.c(t)) * (1.0 + abs(a)) + 1.0
                else:
                    W = max(abs(s) for s in fl.slope_range(h_slice(t, a))) + 1.0
                lo, hi = (lo if np.isfinite(lo) else -W), (hi if np.isfinite(hi) else W)
            inset = 1e-4 * max(hi - lo, 1e-12)
            lo_s = lo + (0.0 if dom_a.lo_closed or not np.isfinite(dom_a.lo) else inset)
            hi_s = hi - (0.0 if dom_a.hi_closed or not np.isfinite(dom_a.hi) else inset)
            if lo_s > hi_s:
                continue
            vs = lo_s + fracs * (hi_s - lo_s)
            la = np.asarray(L(t, a, vs), dtype=float)
            blo = dom_b.lo if np.isfinite(dom_b.lo) else -1e6
            bhi = dom_b.hi if np.isfinite(dom_b.hi) else 1e6
            keep = np.isfinite(la)
            if not np.any(keep):
                continue
            vs_f, la_f = vs[keep], la[keep]
            u0 = np.maximum(vs_f - kd, blo)
            u1 = np.minimum(vs_f + kd, bhi)
            if spec.oracle_L is None:
                best = kink_window_min(h_slice(t, b), u0, np.maximum(u1, u0))
            else:
                best = grid_ternary_window_min(lambda U, t=t, b=b: L(t, b, U), u0, np.maximum(u1, u0))
            n_judged += len(vs_f)
            excess = np.where(u0 > u1, np.inf, best - la_f - w)
            j = int(np.argmax(excess))
            if float(excess[j]) > worst:
                worst = float(excess[j])
                wit = [{"t": float(t), "x": float(a), "y": float(b), "v": float(vs_f[j])}]
    if n_judged == 0:
        return -np.inf, "fail", []
    return worst, "pass" if worst <= tol else "fail", wit


def per_pair_lipschitz(triple, window, plan, n_pairs=48, lip_slack=5e-3):
    """verify_triple's Lipschitz audit one pair at a time: the same draws
    from the plan's stream 7 (the six (t, x) slabs first, then t, x, y and
    the two controls of each pair), each side through its own single-control
    e_eval call. Returns (worst margin, verdict, witness)."""
    spec = triple.source
    mod = spec.modulus
    rng = plan.rng(7)
    t_lo, t_hi = window.t_range
    x_lo, x_hi = window.x_range
    R = max(abs(x_lo), abs(x_hi))
    rng.uniform(t_lo, t_hi, 6)
    rng.uniform(x_lo, x_hi, 6)
    control = triple.control
    worst, wit = -np.inf, []
    for _ in range(n_pairs):
        t = float(rng.uniform(t_lo, t_hi))
        x = float(rng.uniform(x_lo, x_hi))
        y = float(rng.uniform(x_lo, x_hi))
        if control.kind == "unit_ball":
            raw = rng.normal(size=(2, 2))
            nrm = np.linalg.norm(raw, axis=1, keepdims=True)
            a, b = raw / np.maximum(nrm, 1e-12) * rng.uniform(0.0, 1.0, (2, 1))
        elif control.kind == "full_space":
            a, b = rng.uniform(-2.0, 2.0, (2, 2))
        elif control.kind == "interval":
            a, b = rng.uniform(control.lo, control.hi, (2, 1))
        else:
            a, b = control.points[rng.integers(0, len(control.points), 2)]
        ea = np.asarray(triple.e_eval(t, x, a), dtype=float)
        eb = np.asarray(triple.e_eval(t, y, b), dtype=float)
        lhs = float(np.linalg.norm(ea - eb))
        d = abs(x - y)
        Ma, Mb = triple.scaling(t, x), triple.scaling(t, y)
        scaled = float(np.linalg.norm(Ma * np.atleast_1d(a) - Mb * np.atleast_1d(b)))
        k = float(mod.k_R(R, t))
        w = float(mod.w_R(R, t, d))
        rhs = 10.0 * (spec.n + 1) * (k * d + w + scaled)
        if lhs - rhs > worst:
            worst = lhs - rhs
            mixed = 5.0 * (spec.n + 1) * (2.0 * k * d + 2.0 * w + scaled)
            wit = [{"t": t, "x": x, "y": y, "lhs": lhs, "rhs_combined": rhs, "rhs_mixed": mixed}]
    return worst, "pass" if worst <= lip_slack else "fail", wit


def brute_hausdorff(averts, bverts):
    """Hausdorff distance between convex polygons given CCW vertices.

    The excess of one convex body over another is attained at a vertex,
    so scanning vertices against point-to-polygon distances is exact.
    """
    a = np.asarray(averts, dtype=float)
    b = np.asarray(bverts, dtype=float)
    d_ab = max(point_polygon_distance(q, b) for q in a)
    d_ba = max(point_polygon_distance(q, a) for q in b)
    return float(max(d_ab, d_ba))


def user_triple_point(name, x, a, h=0.0, k=0.0):
    """(f, l) of the zoo's hand-written triple `name` at one control a,
    from its formulas in scalar floats (h and k are the family's
    constants)."""
    if name == "hat_rep_ex_2_1":
        return float(a[0] * abs(x)), float(abs(a[0]) + abs(a[1]) * (1.0 - abs(a[0])))
    if name == "circle_rep_ex_2_2":
        return float(a[0]), float(a[1] + abs(x))
    if name == "family_p_abs":
        return float(a[0] * (1.0 + abs(a[0]) * h) / (1.0 + h)), float((1.0 - abs(a[0])) * k)
    raise ValueError(f"no formulas for {name!r}")


def convexified_plan(samples, weights, n_cross=16):
    """Packed control plan of a convexified triple, row by row: each base
    sample paired with itself at weight (1, 0), then every pair (i, j) of
    a strided subset of the samples at every simplex weight."""
    S = np.asarray(samples, dtype=float)
    rows = [np.concatenate([s, s, [1.0, 0.0]]) for s in S]
    idx = range(0, len(S), max(1, -(-len(S) // n_cross)))
    for i in idx:
        for j in idx:
            for al in weights:
                rows.append(np.concatenate([S[i], S[j], al]))
    return np.array(rows)


def convexified_points(point_of, packed_rows, q):
    """e of a convexified triple, one packed row (a, b, alpha_1, alpha_2)
    at a time: one base evaluation `point_of(control) -> (f, l)` per atom,
    combined in scalar floats as alpha_1 e(a) + alpha_2 e(b)."""
    rows = np.asarray(packed_rows, dtype=float)
    out = np.empty((len(rows), 2))
    for r, row in enumerate(rows):
        a, b, al = row[:q], row[q : 2 * q], row[2 * q :]
        fa, la = (float(v) for v in point_of(a))
        fb, lb = (float(v) for v in point_of(b))
        out[r] = (float(al[0] * fa + al[1] * fb), float(al[0] * la + al[1] * lb))
    return out


def plan_induced_H(triple, t, x, p_values, a_samples):
    """H induced by the triple over an explicit control plan at one (t, x):
    the max over the rows a of p f(t, x, a) - l(t, x, a), from one e_eval
    call on the whole plan."""
    E = np.asarray(triple.e_eval(t, x, a_samples), dtype=float)
    p = np.asarray(p_values, dtype=float)
    return np.max(p[:, None] * E[None, :, 0] - E[None, :, 1], axis=1)


def first_appearance_slabs(ts, xs, n):
    """`fenchel.row_slabs` by a dict over the rows: the distinct (t, x) in
    order of first appearance and each row's index into them."""
    if np.ndim(ts) == 0 and np.ndim(xs) == 0:
        return [(float(ts), float(xs))], np.zeros(n, dtype=np.intp)
    index = {}
    rows = zip(np.broadcast_to(ts, (n,)).tolist(), np.broadcast_to(xs, (n,)).tolist())
    slab_of = np.array([index.setdefault(p, len(index)) for p in rows], dtype=np.intp)
    return list(index), slab_of


def inline_h_slice(h_eval, t, x, p_grid):
    """H(t, x, .) sampled on p_grid."""
    return fl.ConvexGridFunction(p_grid, np.asarray(h_eval(t, x, p_grid.nodes()), dtype=float))


def inline_widened_trust(hfn):
    """The edge slopes of the H sample hfn, each widened by the rounding
    bound 4 eps (|H_a| + |H_b|)/h of its difference quotient: the numeric
    domain of L and the ends of its trusted slice."""
    s_lo, s_hi = fl.slope_range(hfn)
    _, vals = hfn.finite_slice()
    bound = 4.0 * np.finfo(float).eps / hfn.grid.h
    if len(vals) >= 2:
        s_lo -= bound * (abs(vals[0]) + abs(vals[1]))
        s_hi += bound * (abs(vals[-2]) + abs(vals[-1]))
    return s_lo, s_hi


def inline_lagrangian_slice(h_eval, t, x, p_grid, v_grid, trusted=True):
    """L(t, x, .) on v_grid: the conjugate of the H sample and, when
    trusted, +inf outside its edge slopes, each widened by the rounding
    bound 4 eps (|H_a| + |H_b|)/h of its difference quotient (the node
    nearest their midpoint kept when no node lies between them)."""
    hfn = inline_h_slice(h_eval, t, x, p_grid)
    raw = grid_conjugate(hfn, v_grid)
    if not trusted:
        return raw
    s_lo, s_hi = inline_widened_trust(hfn)
    nodes = v_grid.nodes()
    keep = (nodes >= s_lo) & (nodes <= s_hi)
    if not np.any(keep):
        keep[int(np.argmin(np.abs(nodes - 0.5 * (s_lo + s_hi))))] = True
    return fl.ConvexGridFunction(v_grid, np.where(keep, raw.values, np.inf))


def inline_probe_values(spec, t, x, p_grid, margin=0.1, count=201):
    """Velocity probes at least `margin` inside the oracle domain (else the
    widened trust interval) and inside the trust interval; an unbounded domain is
    clamped at c(t)(1 + |x|) + 1, or at the H sample's max |edge slope| + 1
    without c."""
    hfn = inline_h_slice(spec.eval, t, x, p_grid)
    s_lo, s_hi = fl.slope_range(hfn)
    dom = spec.oracle_dom(t, x) if spec.oracle_dom is not None else fl.EffectiveDomain(*inline_widened_trust(hfn))
    c = spec.modulus.c
    W = float(c(t)) * (1.0 + abs(x)) + 1.0 if c is not None else max(abs(s_lo), abs(s_hi)) + 1.0
    lo = dom.lo if np.isfinite(dom.lo) else -W
    hi = dom.hi if np.isfinite(dom.hi) else W
    if hi - lo <= 2.0 * margin:
        return np.array([0.5 * (lo + hi)])
    vlo, vhi = max(lo + margin, s_lo), min(hi - margin, s_hi)
    if vhi <= vlo:
        return np.array([0.5 * (max(lo, s_lo) + min(hi, s_hi))])
    return np.linspace(vlo, vhi, count)


# ------------------------------------------ former library kernels
#
# Kept as references after leaving the package: the production selection is
# `convex_geom.steiner_selection`, exact, and nothing in the package called
# these. Each is the library code as it was, on the package's public bodies.


def body_scale(body):
    """max(1, max |vertex coordinate|): the size the package's tolerances
    scale with (the former `ConvexBody.scale`)."""
    return float(max(1.0, np.max(np.abs(body.vertices))))


def support(body, direction):
    """Support value and a canonical support point (the former
    `convex_geom.support`): max over the body of <u, z> for the normalized
    direction u, and the minimal-norm point of the maximizing face."""
    u = np.asarray(direction, dtype=float)
    if u.shape != (2,):
        raise DimMismatch(f"direction must be a 2-vector, got shape {u.shape}")
    nrm = float(np.linalg.norm(u))
    if nrm == 0.0 or not np.isfinite(nrm):
        raise ValueError("direction must be nonzero and finite")
    u = u / nrm
    verts = body.vertices
    vals = verts @ u
    vmax = float(np.max(vals))
    tie_tol = 1e-12 * max(1.0, abs(vmax)) * 10.0
    idx = np.nonzero(vals >= vmax - tie_tol)[0]
    if len(idx) == 1:
        return vmax, verts[idx[0]].copy()
    # maximizing face is a segment; take its minimal-norm point
    perp = np.array([-u[1], u[0]])
    s = verts[idx] @ perp
    a = verts[idx[int(np.argmin(s))]]
    b = verts[idx[int(np.argmax(s))]]
    ab = b - a
    denom = float(ab @ ab)
    if denom <= 1e-300:
        return vmax, a.copy()
    t = min(1.0, max(0.0, float(-(a @ ab) / denom)))
    return vmax, a + t * ab


def restrict(fn, lo, hi):
    """Copy of a grid function with values outside [lo, hi] set to +inf
    (the former `fenchel.restrict`)."""
    nodes = fn.grid.nodes()
    vals = fn.values.copy()
    vals[(nodes < lo) | (nodes > hi)] = np.inf
    return fl.ConvexGridFunction(fn.grid, vals)


def grid_conjugate(fn, out_grid):
    """The discrete conjugate of fn at the nodes of out_grid, as a grid
    function (the former `fenchel.conjugate`)."""
    return fl.ConvexGridFunction(out_grid, fl.conjugate_values(fn, out_grid.nodes()))


def midpoint_defect(fn):
    """The largest midpoint defect 2 f_i - f_(i-1) - f_(i+1) over the
    finite run of fn, and the bound 2e-9 max(1, max |f|) that the former
    `convex_flag` check held a convex grid function to."""
    _, f = fn.finite_slice()
    if len(f) < 3:
        return 0.0, 0.0
    return float(np.max(2.0 * f[1:-1] - f[:-2] - f[2:])), 2e-9 * max(1.0, float(np.max(np.abs(f))))


def scaled_modulus(mod, factor):
    """The modulus with k_R and w_R times factor and c kept (the former
    `zoo.ModulusData.scaled`): criterion 02's halved-k mutation at 0.5."""
    k, w = mod.k_R, mod.w_R
    return dataclasses.replace(mod, k_R=lambda R, t: factor * k(R, t), w_R=lambda R, t, r: factor * w(R, t, r))


def inside_mask(points, body):
    """Points lying in the body within its inside tolerance (the former
    `convex_geom._inside_mask`): left of every edge of a polygon, within
    1e-12 max(1, max |vertex|) of a point or segment."""
    if len(body.vertices) >= 3:
        s = body.stack
        rx, ry = points[:, 0, None] - s.ax[0], points[:, 1, None] - s.ay[0]
        return np.all(s.ex[0] * ry - s.ey[0] * rx >= -s.tol[0], axis=1)
    return cg.distance(points, body) <= 1e-12 * body_scale(body)


def project_point(y, body):
    """Nearest point of the body to y, y itself when inside (the former
    `convex_geom.project_point`)."""
    p = np.asarray(y, dtype=float)
    verts = body.vertices
    if len(verts) == 1:
        return verts[0].copy()
    if len(verts) >= 3 and bool(inside_mask(p[None, :], body)[0]):
        return p.copy()
    s = body.stack
    m = len(verts) if len(verts) >= 3 else 1
    ax, ay, ex, ey = s.ax[0, :m], s.ay[0, :m], s.ex[0, :m], s.ey[0, :m]
    rx, ry = p[0] - ax, p[1] - ay
    t = np.clip((rx * ex + ry * ey) / s.den[0, :m], 0.0, 1.0)
    dx = rx - t * ex
    dy = ry - t * ey
    k = int(np.argmin(dx * dx + dy * dy))
    return np.array([ax[k] + t[k] * ex[k], ay[k] + t[k] * ey[k]])


def proj_map(y, body, arc_deg=0.5):
    """Projection-map body P(y, K) = K cap B(y, 2 d(y, K)) as a polygon
    (the former `convex_geom.proj_map`). The disc radius is the exact
    doubled distance; only the circular arcs are discretized, at `arc_deg`
    degree resolution. For y inside K the result is the singleton {y}."""
    p = np.asarray(y, dtype=float)
    verts = body.vertices
    if len(verts) == 1:
        return cg.ConvexBody(verts)
    d = cg.distance(p, body)
    if d == 0.0:
        return cg.ConvexBody(p[None, :])
    r = 2.0 * d
    cand = [project_point(p, body)[None, :]]

    keep = np.linalg.norm(verts - p, axis=1) <= r * (1.0 + 1e-12)
    if np.any(keep):
        cand.append(verts[keep])

    a = verts if len(verts) >= 3 else verts[:1]
    b = np.roll(verts, -1, axis=0) if len(verts) >= 3 else verts[1:]
    ab = b - a
    qa = np.einsum("ij,ij->i", ab, ab)
    qb = 2.0 * np.einsum("ij,ij->i", ab, a - p[None, :])
    qc = np.einsum("ij,ij->i", a - p[None, :], a - p[None, :]) - r * r
    disc = qb * qb - 4.0 * qa * qc
    ok = (disc >= 0) & (qa > 1e-300)
    if np.any(ok):
        sq = np.sqrt(disc[ok])
        for sign in (-1.0, 1.0):
            t = (-qb[ok] + sign * sq) / (2.0 * qa[ok])
            good = (t >= -1e-12) & (t <= 1.0 + 1e-12)
            if np.any(good):
                tt = np.clip(t[good], 0.0, 1.0)
                cand.append(a[ok][good] + tt[:, None] * ab[ok][good])

    n_arc = max(8, int(math.ceil(360.0 / arc_deg)))
    theta = 2.0 * np.pi * (np.arange(n_arc) + 0.5) / n_arc
    circ = p[None, :] + r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    inside = inside_mask(circ, body)
    if np.any(inside):
        cand.append(circ[inside])

    return cg.ConvexBody(np.concatenate(cand, axis=0))


def ball(center, radius, n=360):
    """Inscribed n-gon approximation of the closed disc B(center, radius)
    (the former `convex_geom.ball`)."""
    c = np.asarray(center, dtype=float)
    if c.shape != (2,):
        raise DimMismatch("ball center must be a 2-vector")
    if radius < 0:
        raise ValueError("negative radius")
    if radius == 0:
        return cg.ConvexBody(c[None, :])
    theta = 2.0 * np.pi * np.arange(n) / n
    pts = c[None, :] + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return cg.ConvexBody(pts)
