"""Exact planar convex bodies and the selection maps built on them.

Bodies are convex polygons in the (v, eta) plane stored as CCW vertex loops
in strictly convex position (degenerate bodies with one or two vertices are
first-class). All metric operations (distance, Hausdorff) are exact on
polygons up to float rounding, and so are the Steiner points: `steiner` of
a body and `disc_steiner` of a body cut by discs. `steiner_selection`
composes them into the selection e = Steiner point of P(z, E) =
E cap B(z, 2 d(z, E)) without building P; it is the selection the
builders run and the one `geometry_suite` audits. Nothing polygonizes a
disc: the suite audits `hausdorff` through exact identities on polygons.

`distance` and `disc_steiner` are stacked kernels: they take one body, or
a `BodyStack` of bodies padded into common edge arrays together with the
body of each row, so rows against many bodies cost one call. A single
body is a stack of one (kept on the body), whose arrays broadcast over
the rows. Each row's result is bit for bit what its body alone gives.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimMismatch, EmptyBody

# the relative tolerance of the inside test and of the epigraph prune
_EPS_BASE = 1e-12


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull of a 2D point set via the monotone chain.

    Parameters
    ----------
    points : (N, 2) array_like
        Input points; duplicates allowed.

    Returns
    -------
    (M, 2) ndarray
        Hull vertices in CCW order starting from the lexicographically
        smallest vertex, each turning left exactly. Repeated and collinear
        points are dropped (of equal rows, the stable sort's order decides
        which stays); M may be 1 (all equal) or 2 (all collinear).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimMismatch(f"expected (N, 2) points, got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise EmptyBody("no points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite coordinates in hull input")
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    # sorted, so the least row equals the greatest only when all are equal
    if np.all(pts[0] == pts[-1]):
        return pts[:1]
    # the lower chain, then the upper one as the lower chain of the reversed points
    xs, ys = pts[:, 0], pts[:, 1]
    lower = _chain_lower_hull(xs, ys, 0.0)
    upper = _chain_lower_hull(xs[::-1], ys[::-1], 0.0)
    return pts[np.concatenate([lower[:-1], len(pts) - 1 - upper[:-1]])]


# a float turn l - r is off by at most (3 + 16u)u (|l| + |r|), u = 2^-53
# (Shewchuk 1997, Adaptive precision floating-point arithmetic and fast
# robust geometric predicates). With coordinates within S of 0, |l| + |r|
# <= 8 S^2 (1 + u); 9 S^2 covers that and the bound's rounding, _TINY the
# products' underflow.
_TURN_ERR = 9.0 * (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_TINY = float(np.finfo(float).tiny)


def _chain_lower_hull(x: np.ndarray, y: np.ndarray, eps: float) -> np.ndarray:
    """Indices of the lower hull of two or more points in lexicographic
    order (the upper hull for the reverse order), by the sequential
    monotone chain: a point leaves when the exact turn from its predecessor
    to the next point is at most eps.

    The float turn decides when it clears eps by more than its rounding
    bound; any other turn, NaN or inf from an overflowed product included,
    is decided exactly by `_exact_turn_above`."""
    # plain floats: the same IEEE arithmetic as numpy scalars, without their
    # per-element overhead
    xs, ys = x.tolist(), y.tolist()
    s = max(max(xs), -min(xs), max(ys), -min(ys))
    # past about 1e153 a product can overflow, and every turn goes exact
    err = _TURN_ERR * s * s + _TINY if 16.0 * s * s < math.inf else math.inf
    hi, lo = math.nextafter(eps + err, math.inf), math.nextafter(eps - err, -math.inf)
    out = [0, 1]
    for i in range(2, len(xs)):
        xi, yi = xs[i], ys[i]
        while len(out) >= 2:
            o, a = out[-2], out[-1]
            c = (xs[a] - xs[o]) * (yi - ys[o]) - (ys[a] - ys[o]) * (xi - xs[o])
            if c > hi or (not c < lo and _exact_turn_above(xs[o], ys[o], xs[a], ys[a], xi, yi, eps)):
                break
            out.pop()
        out.append(i)
    return np.asarray(out)


def _exact_turn_above(ox, oy, ax, ay, px, py, eps) -> bool:
    """Whether the exact turn (a - o) x (p - o) exceeds eps."""
    # a float difference is 0 only when its operands are equal, so a zero
    # factor in each product makes the exact turn 0
    if (ax == ox or py == oy) and (ay == oy or px == ox):
        return 0.0 > eps
    # rare enough that the import stays out of module load
    from fractions import Fraction as F

    return (F(ax) - F(ox)) * (F(py) - F(oy)) - (F(ay) - F(oy)) * (F(px) - F(ox)) > eps


class ConvexBody:
    """Compact convex polygon.

    Parameters
    ----------
    points : (N, 2) array_like
        Generating points; the body is their convex hull.
    """

    __slots__ = ("vertices", "_stack")

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != 2:
            raise DimMismatch(f"bodies are planar, got dim {pts.shape[1]}")
        self.vertices = convex_hull(pts)
        self._stack = None

    @classmethod
    def _from_loop(cls, vertices: np.ndarray) -> "ConvexBody":
        """Body whose vertices are already a hull: a CCW loop in strictly
        convex position from the lexicographically smallest vertex."""
        body = cls.__new__(cls)
        body.vertices = vertices
        body._stack = None
        return body

    @property
    def stack(self) -> "BodyStack":
        """The body as a stack of one, built on first use."""
        if self._stack is None:
            self._stack = BodyStack([self])
        return self._stack

    def __repr__(self):
        return f"ConvexBody(<{len(self.vertices)} vertices>)"


class BodyStack:
    """Bodies stacked into padded edge arrays, so that one kernel call can
    measure rows against different bodies.

    Row b holds body b: `counts[b]` vertices, the edge starts (ax, ay), the
    edge vectors (ex, ey) and their squared lengths `den` (floored at
    1e-300). A polygon has one edge per vertex, from vertex j to vertex
    j + 1 (mod n); a segment has the one edge from its first to its second
    vertex; a point has none, and its column 0 holds the point. Pad columns
    repeat column 0, so a minimum or an all-test over a row is unchanged by
    them; `valid` marks the real edges for the kernels that sum. The inside
    test allows `tol`: 1e-12 max(1, max |vertex|) times the edge length.
    """

    __slots__ = ("counts", "ax", "ay", "ex", "ey", "den", "tol", "valid")

    def __init__(self, bodies):
        verts = [b.vertices for b in bodies]
        if not verts:
            raise EmptyBody("no bodies to stack")
        # a[b, j] and b[b, j]: indices into the vertex list of the start and
        # end of the edge in column j (the edge out of vertex j; pads take
        # column 0, and a point's edge ends where it starts)
        self.counts = counts = np.array([len(v) for v in verts])
        V = np.concatenate(verts)
        start = np.cumsum(counts) - counts
        col = np.arange(int(counts.max()))
        self.valid = col < np.where(counts >= 3, counts, counts - 1)[:, None]
        a = np.where(self.valid, start[:, None] + col, start[:, None])
        b = a + 1
        # the last vertex of a polygon wraps to the first, a point to itself
        polygon, point = counts >= 3, counts == 1
        b[polygon, counts[polygon] - 1] = start[polygon]
        b[point] = start[point, None]
        scale = np.maximum(np.maximum.reduceat(np.abs(V).ravel(), 2 * start), 1.0)
        vx, vy = V[:, 0].copy(), V[:, 1].copy()
        self.ax, self.ay = vx[a], vy[a]
        self.ex, self.ey = vx[b] - self.ax, vy[b] - self.ay
        self.den = np.maximum(self.ex * self.ex + self.ey * self.ey, 1e-300)
        self.tol = (_EPS_BASE * scale)[:, None] * np.hypot(self.ex, self.ey)

    def __len__(self) -> int:
        return len(self.counts)


def _rows_of(bodies, owner, n_rows: int):
    """The stack of one body or a BodyStack, and the owner of each row: an
    (N,) index array, or 0 for a stack of one (the kernels then broadcast
    its edge arrays, gathering nothing)."""
    stack = bodies.stack if isinstance(bodies, ConvexBody) else bodies
    if owner is not None:
        owner = np.asarray(owner, dtype=np.intp)
        if owner.shape != (n_rows,):
            raise DimMismatch(f"expected {n_rows} row owners, got shape {owner.shape}")
    if len(stack) == 1:
        return stack, 0
    if owner is None:
        raise ValueError("a stack of several bodies needs an owner per row")
    return stack, owner


# point-edge pairs per block: each temporary of a batched query stays near 1 MB
_PAIR_BLOCK = 1 << 17


def _left_of_edges(rx, ry, ex, ey, tol) -> np.ndarray:
    """Rows whose offsets (rx, ry) from the edge starts lie left of every
    edge (ex, ey) of their CCW polygon, each within tol of its line."""
    # signed distance to each edge line, times the edge length
    cross = ex * ry - ey * rx
    return np.all(cross >= -tol, axis=1)


def _segment_params(rx, ry, ex, ey, den):
    """Parameter in [0, 1] of the nearest point on each segment."""
    return np.clip((rx * ex + ry * ey) / den, 0.0, 1.0)


# a call on one polygon with at least this many rows and edges locates its
# rows before the scan. Below it the locate step's fixed cost outweighs the
# scan it saves: on a 2 vCPU host it took 51 us against the scan's 36 us at
# 16 rows x 16 edges and 54 against 59 us at 32 x 32, and without a gate
# check_MLC on ex_2_1 (calls of about 11 rows x 12 edges) went from 3 to 11 ms
_LOCATE_MIN = 32
_EPS_MACH8 = 8.0 * np.finfo(float).eps


def _located_inside(points: np.ndarray, stack: BodyStack) -> np.ndarray:
    """Rows of (N, 2) points that pass the inside test of `_points_to_body`
    on every edge of the one polygon of `stack`, found in O(log M) per row
    (Preparata & Shamos, Computational Geometry, 1985, 2.2). False rows
    (outside, near the boundary, NaN or inf) are left to the scan.

    A row equal to a vertex passes: on the edge out of it r = 0; on the
    edge into it r is the same float difference as the stored edge, so the
    cross product is exactly 0; on every other edge the exact cross product
    is >= 0 and its rounding, about 1e-15 scale |e|, is far below the
    tolerance 1e-12 scale |e|. A row strictly between the polygon's least
    and greatest x, with a cross product above its rounding bound on the
    edge at its x of both x-monotone chains, lies strictly inside the exact
    polygon, so every edge's float cross product is >= -tol for the same
    reason.
    """
    vx, vy = stack.ax[0], stack.ay[0]
    n = len(vx)
    px, py = points[:, 0], points[:, 1]
    # vertices in lexicographic order, the order of complex numbers
    key = np.empty(n, dtype=complex)
    key.real, key.imag = vx, vy
    order = np.argsort(key)
    row = np.empty(len(points), dtype=complex)
    row.real, row.imag = px, py
    hit = order[np.minimum(np.searchsorted(key[order], row), n - 1)]
    inside = (vx[hit] == px) & (vy[hit] == py)
    # a translated loop need not start at its least vertex: split at both
    lo, hi = int(order[0]), int(order[-1])
    loop = np.roll(np.arange(n), -lo)
    m = (hi - lo) % n
    lower, upper = loop[: m + 1], np.append(loop[m:], lo)
    rows = np.flatnonzero(~inside & (px > vx[lo]) & (px < vx[hi]))
    if len(rows) == 0:
        return inside
    x, y = px[rows], py[rows]
    # the edge over x of each chain: the lower chain's x rises, the upper's falls
    cols = (
        lower[np.searchsorted(vx[lower], x, side="right") - 1],
        upper[np.searchsorted(-vx[upper], -x, side="right") - 1],
    )
    clear = np.ones(len(rows), dtype=bool)
    for c in cols:
        ex, ey = stack.ex[0, c], stack.ey[0, c]
        a, b = ex * (y - vy[c]), ey * (x - vx[c])
        # rounding of the offsets, the stored edge and both products, and
        # the underflow of either product
        clear &= a - b > _EPS_MACH8 * (np.abs(a) + np.abs(b)) + _TINY
    inside[rows] = clear
    return inside


def _points_to_body(points: np.ndarray, bodies, owner=None) -> np.ndarray:
    """Distances from (N, 2) points to bodies, 0 inside: row i against body
    owner[i] of a stack, or against one body (a stack of one).

    A point body gives the plain hypot. A call on one polygon of at least
    _LOCATE_MIN rows and edges first settles the rows that
    `_located_inside` places inside. The other rows run in blocks of about
    _PAIR_BLOCK point-edge pairs. On a polygon the inside test runs first,
    and only the rows it rejects pay for the segment distances; the
    offsets from the edge starts serve both. Pad columns repeat a real
    edge, so they change neither test nor minimum. Rows are independent,
    so each distance is bit for bit what the scan alone gives.
    """
    stack, k = _rows_of(bodies, owner, len(points))
    out = np.zeros(len(points))
    if np.ndim(k) == 0:
        if stack.counts[0] == 1:
            return np.hypot(points[:, 0] - stack.ax[0, 0], points[:, 1] - stack.ay[0, 0])
        rows = np.arange(len(points))
        if stack.counts[0] >= 3 and min(len(points), stack.counts[0]) >= _LOCATE_MIN:
            rows = rows[~_located_inside(points, stack)]
    else:
        point = stack.counts[k] == 1
        if np.any(point):
            kp = k[point]
            out[point] = np.hypot(points[point, 0] - stack.ax[kp, 0], points[point, 1] - stack.ay[kp, 0])
        rows = np.flatnonzero(~point)
    step = max(1, _PAIR_BLOCK // stack.ax.shape[1])
    for s in range(0, len(rows), step):
        idx = rows[s : s + step]
        kb = k if np.ndim(k) == 0 else k[idx]
        ex, ey = stack.ex[kb], stack.ey[kb]
        rx = points[idx, 0][:, None] - stack.ax[kb]
        ry = points[idx, 1][:, None] - stack.ay[kb]
        polygon = stack.counts[kb] >= 3
        if np.any(polygon):
            outside = ~(_left_of_edges(rx, ry, ex, ey, stack.tol[kb]) & polygon)
            if not np.any(outside):
                continue
            rx, ry, idx = rx[outside], ry[outside], idx[outside]
            if np.ndim(kb):
                kb, ex, ey = kb[outside], ex[outside], ey[outside]
        t = _segment_params(rx, ry, ex, ey, stack.den[kb])
        dx = rx - t * ex
        dy = ry - t * ey
        out[idx] = np.sqrt(np.min(dx * dx + dy * dy, axis=1))
    return out


def distance(y, bodies, owner=None):
    """Euclidean distance from y to a body (0 inside).

    y is one point (2,), giving a float, or a stack (N, 2), giving an (N,)
    array; stacks run in blocks, so their temporaries stay small. `bodies`
    is one ConvexBody, or a BodyStack with `owner[i]` the body of row i.
    A row with a NaN coordinate reads NaN, and any other row with an
    infinite coordinate +inf; neither goes to the scan.
    """
    p = np.asarray(y, dtype=float)
    one = p.shape == (2,)
    if one:
        p, owner = p[None, :], None if owner is None else [owner]
    elif p.ndim != 2 or p.shape[1] != 2:
        raise DimMismatch(f"expected a 2-vector or (N, 2) points, got shape {p.shape}")
    finite = np.isfinite(p).all(axis=1)
    if finite.all():
        out = _points_to_body(p, bodies, owner)
    else:
        stack, k = _rows_of(bodies, owner, len(p))
        rows = np.flatnonzero(finite)
        out = np.where(np.isnan(p).any(axis=1), np.nan, np.inf)
        out[rows] = _points_to_body(p[rows], stack, None if np.ndim(k) == 0 else k[rows])
    return float(out[0]) if one else out


# the signs of the box corners (r_v, r_eta), (r_v, -r_eta), (-r_v, r_eta),
# (-r_v, -r_eta): each corner is the box's extreme point on the closed
# quadrant of directions with its signs. Turning counterclockwise, that
# quadrant starts on the axis of coordinate _START_AXIS with sign
# _START_SIGN: (1, 0), (0, -1), (0, 1), (-1, 0).
_CORNER_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
_START_AXIS = np.array([0, 1, 1, 0])
_START_SIGN = np.array([1.0, -1.0, 1.0, -1.0])
# the corners of _CORNER_SIGNS by quadrant, counterclockwise from (+, +)
_CCW_CORNERS = np.array([0, 2, 3, 1])


def minkowski_inflate(body: ConvexBody, r_v: float, r_eta: float) -> ConvexBody:
    """Minkowski sum with the box [-r_v, r_v] x [-r_eta, r_eta].

    Vertex v plus corner c can be extreme in the sum only for directions
    in both the normal cone of v and the closed quadrant of c, so only the
    corners whose quadrant meets the cone are candidates. The cone turns
    counterclockwise from n_in = (e_y, -e_x), the outward normal of the
    edge e into v, to that of the edge out of v. It meets a quadrant when
    n_in lies in the quadrant, or when the quadrant's starting axis lies in
    the cone, that is, when v is extreme along that axis (the edges' motion
    along it turns at v). Both tests read signs of edge coordinates, so
    they are exact.

    For a polygon the candidates already run counterclockwise: vertex by
    vertex, and at each vertex quadrant by quadrant from the quadrant q
    whose half-open arc (90q, 90(q + 1)] degrees holds the angle of n_in.
    The arc is open at its start: an n_in on an axis lies in two closed
    quadrants, and the earlier one comes first. Rounding each corner is
    monotone in each coordinate, so the loop stays ordered along both
    monotone chains of the hull, and the hull's exact chains run on it
    without its sort: from the loop's lexicographically least point to its
    greatest and back. The result starts at the least point. A segment or
    a single point (zero edges) goes to the general hull.
    """
    if r_v < 0 or r_eta < 0:
        raise ValueError("inflation radii must be nonnegative")
    # a subnormal radius moves a corner off its vertex only where that
    # coordinate is 0 or subnormal, and the float turns there underflow to 0
    r_v, r_eta = (0.0 if r < _TINY else r for r in (r_v, r_eta))
    verts = body.vertices
    e_out = np.concatenate([verts[1:], verts[:1]]) - verts
    e_in = np.concatenate([e_out[-1:], e_out[:-1]])
    sx, sy = _CORNER_SIGNS[:, 0], _CORNER_SIGNS[:, 1]
    n_in_inside = (e_in[:, 1, None] * sx >= 0.0) & (e_in[:, 0, None] * sy <= 0.0)
    axis_inside = (e_in[:, _START_AXIS] * _START_SIGN >= 0.0) & (
        e_out[:, _START_AXIS] * _START_SIGN <= 0.0
    )
    corners = np.array(
        [[r_v, r_eta], [r_v, -r_eta], [-r_v, r_eta], [-r_v, -r_eta]], dtype=float
    )
    candidate = n_in_inside | axis_inside
    if len(verts) < 3:
        return ConvexBody((verts[:, None, :] + corners[None, :, :])[candidate])
    # the half-open arc (90q, 90(q + 1)] of n_in = (e_y, -e_x): q is 0 or 1
    # on the upper side (the axis at 180 degrees included), 2 or 3 below
    nx, ny = e_in[:, 1], -e_in[:, 0]
    upper = (ny > 0.0) | ((ny == 0.0) & (nx < 0.0))
    q = np.where(upper, nx < 0.0, 2 + (nx > 0.0))
    slots = _CCW_CORNERS[(q[:, None] + np.arange(4)) % 4]
    keep = np.take_along_axis(candidate, slots, axis=1)
    loop = (verts[:, None, :] + corners[slots])[keep]
    # exact repeats of the next point go here, not through the chains' exact branch
    loop = loop[(loop != np.concatenate([loop[1:], loop[:1]])).any(axis=1)]
    if not np.isfinite(loop).all():
        return ConvexBody(loop)  # the hull rejects a non-finite corner
    # the hull's two chains, on the loop from its lexicographically least
    # point to its greatest and on around to the least again
    order = np.lexsort((loop[:, 1], loop[:, 0]))
    lo, hi = int(order[0]), (int(order[-1]) - int(order[0])) % len(loop)
    ring = np.concatenate([loop[lo:], loop[: lo + 1]])
    lower = _chain_lower_hull(ring[: hi + 1, 0], ring[: hi + 1, 1], 0.0)
    upper = hi + _chain_lower_hull(ring[hi:, 0], ring[hi:, 1], 0.0)
    return ConvexBody._from_loop(ring[np.concatenate([lower[:-1], upper[:-1]])])


def containment_gap(outer: ConvexBody, inner: ConvexBody) -> float:
    """Worst distance from an extreme point of inner to outer (0 when
    inner is contained)."""
    return float(np.max(_points_to_body(inner.vertices, outer)))


def hausdorff(a: ConvexBody, b: ConvexBody) -> float:
    """Hausdorff distance between two polygon bodies: the larger directed
    excess (exact for polygons: each is attained at a vertex)."""
    return max(containment_gap(b, a), containment_gap(a, b))


def _turn(ux, uy, wx, wy):
    """Turning angle in [0, pi] from direction u to direction w. A convex
    boundary traversed CCW only turns left, so the unsigned angle is the
    turn, which keeps rounding near 0 and pi on the right branch."""
    return np.arctan2(np.abs(ux * wy - uy * wx), ux * wx + uy * wy)


def _vertex_turns(stack: BodyStack, k, cols) -> np.ndarray:
    """Turns at the vertices cols of the polygons k (0, or one per entry),
    from the edge into each vertex to the edge out of it."""
    prev = np.where(cols == 0, stack.counts[k] - 1, cols - 1)
    return _turn(stack.ex[k, prev], stack.ey[k, prev], stack.ex[k, cols], stack.ey[k, cols])


def steiner(body: ConvexBody) -> np.ndarray:
    """Steiner point (1/2 pi) of the integral of the support point over the
    circle of directions, in closed form (Schneider, Convex Bodies, 1.7).

    A point maps to itself, a segment to its midpoint, and a polygon to its
    vertices weighted by their exterior angles.
    """
    verts = body.vertices
    if len(verts) < 3:
        return verts.mean(axis=0)
    ang = _vertex_turns(body.stack, 0, np.arange(len(verts)))
    return (verts * ang[:, None]).sum(axis=0) / ang.sum()


def _segment_disc_steiner(stack, k, C, R):
    # midpoint of the clipped segment, computed on the segment itself so a
    # coordinate the segment keeps constant stays exact; a disc that misses
    # the segment gives the point nearest its centre
    vx, vy = stack.ax[k, 0], stack.ay[k, 0]
    ex, ey = stack.ex[k, 0], stack.ey[k, 0]
    rx = vx - C[:, 0]
    ry = vy - C[:, 1]
    qa = ex * ex + ey * ey
    hb = rx * ex + ry * ey
    sq = np.sqrt(np.maximum(hb * hb - qa * (rx * rx + ry * ry - R * R), 0.0))
    mid = 0.5 * (np.clip((-hb - sq) / qa, 0.0, 1.0) + np.clip((-hb + sq) / qa, 0.0, 1.0))
    return np.stack([vx + mid * ex, vy + mid * ey], axis=-1)


def _polygon_disc_steiner(stack, k, C, R):
    # The boundary of K = E cap B alternates between edge pieces inside the
    # disc and circle arcs inside E. Corners (vertices in the disc and
    # edge-circle crossings) add point x turn; an arc from normal angle a to
    # b adds c (b - a) + r (sin b - sin a, cos a - cos b), i.e. the centre
    # times the arc angle plus its chord turned by -90 degrees. Relative to
    # the centre the arc angles drop out, and the chords of all arcs sum to
    # (sum of entry points) - (sum of exit points), so no arc pairing is
    # needed. Pad columns are masked out of every sum, and each row's
    # columns stay in vertex order, so the sums add in the same order as
    # for the body alone.
    n_rows = len(C)
    shape = (n_rows, stack.ax.shape[1])
    ex, ey = stack.ex[k], stack.ey[k]
    valid = stack.valid[k]
    rx = stack.ax[k] - C[:, 0, None]
    ry = stack.ay[k] - C[:, 1, None]
    r2 = (R * R)[:, None]
    inside = (rx * rx + ry * ry <= r2) & valid
    # the next vertex of each: one column on, and column 0 after the last
    inside_next = np.zeros(shape, dtype=bool)
    inside_next[:, :-1] = inside[:, 1:]
    inside_next[np.arange(n_rows), stack.counts[k] - 1] = inside[:, 0]
    # edge parameters t where |v + t ab - c| = r
    qa = ex * ex + ey * ey
    hb = rx * ex + ry * ey
    disc = hb * hb - qa * (rx * rx + ry * ry - r2)
    sq = np.sqrt(np.maximum(disc, 0.0))
    t0 = np.where(inside, 0.0, np.clip((-hb - sq) / qa, 0.0, 1.0))
    t1 = np.where(inside_next, 1.0, np.clip((-hb + sq) / qa, 0.0, 1.0))
    piece = (inside | inside_next | ((disc > 0.0) & (t1 > t0))) & valid

    ex, ey = np.broadcast_to(ex, shape), np.broadcast_to(ey, shape)
    rows, cols = np.nonzero(inside)
    turn = _vertex_turns(stack, k if np.ndim(k) == 0 else k[rows], cols)
    sx = np.zeros(n_rows)
    sy = np.zeros(n_rows)
    sx += np.bincount(rows, turn * rx[rows, cols], minlength=n_rows)
    sy += np.bincount(rows, turn * ry[rows, cols], minlength=n_rows)
    for t, mask, sign in ((t0, piece & ~inside, 1.0), (t1, piece & ~inside_next, -1.0)):
        rows, cols = np.nonzero(mask)
        ax, ay = ex[rows, cols], ey[rows, cols]
        qx = rx[rows, cols] + t[rows, cols] * ax
        qy = ry[rows, cols] + t[rows, cols] * ay
        # circle tangent (-qy, qx); entries turn from it onto the edge,
        # exits from the edge onto it
        turn = _turn(-qy, qx, ax, ay)
        sx += np.bincount(rows, turn * qx + sign * qy, minlength=n_rows)
        sy += np.bincount(rows, turn * qy - sign * qx, minlength=n_rows)
    return C + np.stack([sx, sy], axis=1) / (2.0 * np.pi)


def disc_steiner(bodies, centers, radii, owner=None) -> np.ndarray:
    """Exact Steiner points of E cap B(c_i, r_i) for a stack of discs.

    Parameters
    ----------
    bodies : ConvexBody or BodyStack
        Polygon E, or a stack with E_i = body owner[i] for row i; one- and
        two-vertex bodies are handled exactly (a point maps to itself, a
        segment to the midpoint of its clipped part).
    centers : (N, 2) array_like
        Disc centres, outside E_i.
    radii : (N,) array_like or float
        Radii above d(c_i, E_i), so that every disc meets its body.
    owner : (N,) int array_like, optional
        Body of each row; needed for a stack of several bodies.

    Returns
    -------
    (N, 2) ndarray
        Row i is the Steiner point of E_i cap B(c_i, r_i). Rows are
        computed independently, in blocks that keep the temporaries small.
    """
    C = np.atleast_2d(np.asarray(centers, dtype=float))
    if C.ndim != 2 or C.shape[1] != 2:
        raise DimMismatch(f"expected (N, 2) centres, got shape {C.shape}")
    R = np.broadcast_to(np.asarray(radii, dtype=float), (len(C),))
    stack, k = _rows_of(bodies, owner, len(C))
    counts = np.broadcast_to(stack.counts[k], (len(C),))
    out = np.empty((len(C), 2))
    point = counts == 1
    if np.any(point):
        kp = k if np.ndim(k) == 0 else k[point]
        out[point, 0], out[point, 1] = stack.ax[kp, 0], stack.ay[kp, 0]
    segment = np.flatnonzero(counts == 2)
    if len(segment):
        kb = k if np.ndim(k) == 0 else k[segment]
        out[segment] = _segment_disc_steiner(stack, kb, C[segment], R[segment])
    polygon = np.flatnonzero(counts >= 3)
    step = max(1, _PAIR_BLOCK // stack.ax.shape[1])
    for s in range(0, len(polygon), step):
        idx = polygon[s : s + step]
        kb = k if np.ndim(k) == 0 else k[idx]
        out[idx] = _polygon_disc_steiner(stack, kb, C[idx], R[idx])
    return out


def steiner_selection(points, bodies, owner=None) -> np.ndarray:
    """Selections e(z, E) = Steiner point of P(z, E) = E cap B(z, 2 d(z, E))
    for an (N, 2) stack of points, row i against body owner[i] of a
    BodyStack (or one body for all rows). A row inside its body (d = 0)
    maps to itself; the others go through `disc_steiner` at radius 2 d."""
    out = np.array(points, dtype=float)
    d = distance(out, bodies, owner)
    far = np.flatnonzero(d > 0.0)
    if len(far):
        rows_owner = None if owner is None else np.asarray(owner)[far]
        out[far] = disc_steiner(bodies, out[far], 2.0 * d[far], rows_owner)
    return out


def _random_polygon(rng: np.random.Generator) -> ConvexBody:
    """Hull of 3-9 points within 2.5 of a center drawn from [-6, 6]^2."""
    c = rng.uniform(-6.0, 6.0, 2)
    k = int(rng.integers(3, 10))
    return ConvexBody(c[None, :] + rng.uniform(-2.5, 2.5, (k, 2)))


def geometry_suite(plan=None, n_pairs: int = 200) -> list:
    """Seeded property audit of the selection kernels.

    Checks, with the slacks stated next to each: the production selection
    `steiner_selection` is (20/pi)-Lipschitz jointly in point and body, and
    the Steiner point is (4/pi)-Lipschitz in Hausdorff distance (both
    1e-9) and lies in its body (1e-6); the reference triangle matches its
    exterior-angle value (1e-12); `hausdorff` meets two exact identities
    on each drawn body K, with K first on even bodies and second on odd
    ones (relative slack 1e-12: |got - want| <= 1e-12 max(1, want)); and
    hausdorff behaves as a metric (symmetry exact, triangle inequality
    1e-9). With n_pairs = 0 the four checks on the drawn pairs fail.

    The identities: for convex bodies H(K, L) = sup over unit u of
    |h_K(u) - h_L(u)| (Schneider, Convex Bodies, 1.8). A shift by s adds
    <s, u> to every support value and the box [-r_v, r_v] x [-r_eta, r_eta]
    adds r_v |u_v| + r_eta |u_eta|, so H(K, K + s) = |s| and
    H(K, K + box) = hypot(r_v, r_eta). The box sum is the production
    `minkowski_inflate` of `check_MLC`, with r_v = 0 on every fourth body
    (ex_2_2's k = 0). K lies inside K + box, so one directed excess there
    is 0: a `hausdorff` that keeps only one of the two fails on the bodies
    that put K on the side that direction measures.

    The Steiner bound: in the plane s(K) = (1/pi) int h_K(u) u dtheta over
    the unit directions u = (cos theta, sin theta) (Schneider, Convex
    Bodies, 1.7), and |h_K - h_L| <= delta = H(K, L), so for a unit vector
    w, <s(K) - s(L), w> <= (delta/pi) int |cos theta| dtheta = 4 delta/pi.
    The projection map P(z, E) is 5-Lipschitz jointly in point and body,
    so e = s(P) is (5 * 4/pi)-Lipschitz.
    """
    from .report import CheckReport, Worst
    from .sampling import SamplePlan

    plan = plan or SamplePlan()
    rng = plan.rng(11)
    reports: list[CheckReport] = []

    pairs = []
    st = Worst("steiner_lipschitz")
    member = Worst("steiner_membership")
    for i in range(n_pairs):
        K = _random_polygon(rng)
        if i % 2 == 0:
            D = ConvexBody(K.vertices + rng.normal(0.0, 0.3, K.vertices.shape))
        else:
            D = _random_polygon(rng)
        hKD = hausdorff(K, D)
        x = rng.uniform(-9.0, 9.0, 2)
        y = x + rng.normal(0.0, 0.5, 2) if i % 2 == 0 else rng.uniform(-9.0, 9.0, 2)
        pairs.append((K, D, x, y, hKD))

        sK = steiner(K)
        sD = steiner(D)
        st.see(float(np.linalg.norm(sK - sD)) - (4.0 / np.pi) * hKD, {"pair": i, "hKD": float(hKD)})
        member.see(distance(sK, K))
        member.see(distance(sD, D))

    sel = Worst("selection_lipschitz")
    if pairs:
        Ks, Ds, X, Y, H = zip(*pairs)
        X, Y, H = np.array(X), np.array(Y), np.array(H)
        rows = np.arange(len(pairs))
        eK = steiner_selection(X, BodyStack(Ks), rows)
        eD = steiner_selection(Y, BodyStack(Ds), rows)
        gaps = np.linalg.norm(eK - eD, axis=1) - (20.0 / np.pi) * (H + np.linalg.norm(X - Y, axis=1))
        sel.see(gaps, lambda i: {"pair": i, "hKD": float(H[i])})
    reports += [sel.report(1e-9), st.report(1e-9), member.report(1e-6)]

    tri = ConvexBody(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    # exterior angles pi/2, 3pi/4, 3pi/4 weight the vertices into
    # (3pi/4)(1, 1) / (2pi)
    oracle = np.array([0.375, 0.375])
    tri_err = float(np.linalg.norm(steiner(tri) - oracle))
    reports.append(
        CheckReport(
            "steiner_triangle_oracle",
            tri_err,
            "pass" if tri_err <= 1e-12 else "fail",
            [{"oracle": [float(oracle[0]), float(oracle[1])]}],
        )
    )

    shifts = rng.uniform(-3.0, 3.0, (len(pairs), 2))
    radii = rng.uniform(0.1, 3.0, (len(pairs), 2))
    radii[::4, 0] = 0.0
    ident = Worst("hausdorff_exact_identities")
    for i, (K, *_) in enumerate(pairs):
        r_v, r_eta = radii[i]
        for name, L, want in (
            # a translated hull loop is still one, so no hull pass moves K + s
            ("shift", ConvexBody._from_loop(K.vertices + shifts[i]), float(np.hypot(*shifts[i]))),
            ("box", minkowski_inflate(K, r_v, r_eta), float(np.hypot(r_v, r_eta))),
        ):
            got = hausdorff(K, L) if i % 2 == 0 else hausdorff(L, K)
            ident.see(abs(got - want) / max(1.0, want), {"body": i, "identity": name})
    reports.append(ident.report(1e-12))

    metric = Worst("hausdorff_metric")
    for _ in range(50):
        A = _random_polygon(rng)
        B = _random_polygon(rng)
        C = _random_polygon(rng)
        h_ab = hausdorff(A, B)
        if h_ab != hausdorff(B, A):
            metric.see(np.inf)
        metric.see(hausdorff(A, C) - h_ab - hausdorff(B, C))
    reports.append(metric.report(1e-9))
    return reports
