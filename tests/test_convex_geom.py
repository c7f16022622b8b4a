import json
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamrep import convex_geom as cg
from hamrep import fenchel as fl
from hamrep import zoo
from hamrep.errors import DimMismatch, EmptyBody
from hamrep.sampling import SamplePlan

from _oracles import (
    STEINER_SQUARE,
    STEINER_TRIANGLE,
    all_corners_inflate,
    ball,
    body_scale,
    brute_hausdorff,
    candidate_corner_inflate,
    dense_points_to_body,
    exterior_angle_steiner,
    half_chain_convex_hull,
    inflate_candidates,
    numpy_row_convex_hull,
    per_body_disc_steiner,
    proj_map,
    project_point,
    quadrature_disc_steiner,
    support,
)

DATA = pathlib.Path(__file__).resolve().parent / "data"

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _random_poly(rng, n_max=9):
    pts = rng.normal(scale=2.0, size=(int(rng.integers(3, n_max + 1)), 2))
    pts += rng.uniform(-4.0, 4.0, 2)
    return cg.ConvexBody(pts)


# ---------------------------------------------------------------- hull


def test_hull_drops_interior_and_collinear_points():
    pts = np.vstack([SQUARE, [[0.5, 0.5], [0.5, 0.0], [1.0, 0.5]]])
    hull = cg.convex_hull(pts)
    assert hull.shape == (4, 2)
    assert {tuple(v) for v in hull} == {tuple(v) for v in SQUARE}


def test_hull_collinear_input_keeps_extremes():
    pts = np.array([[0.0, 0.0], [0.3, 0.3], [1.0, 1.0], [0.7, 0.7]])
    hull = cg.convex_hull(pts)
    assert hull.shape == (2, 2)
    assert {tuple(v) for v in hull} == {(0.0, 0.0), (1.0, 1.0)}


def test_hull_eps_collinear_vertical_column():
    # transverse spread far below eps once lost the segment endpoints
    pts = np.array(
        [[-4.9e-17, 2.625], [0.0, 0.0], [0.0, 3.0], [-4.9e-17, 2.9], [0.0, 1.7]]
    )
    hull = cg.convex_hull(pts)
    ys = sorted(v[1] for v in hull)
    assert len(hull) == 2
    assert ys[0] == 0.0 and ys[-1] == 3.0


def test_hull_eps_collinear_column_with_level_sorted_ends():
    # the lexicographic first and last points share y = 1.61, so their
    # chord is horizontal: the segment must still run from (0, 0) to (0, 2.6)
    pts = np.array([[-4e-16, 1.61], [0.0, 0.0], [0.0, 2.6], [0.0, 1.0], [4e-16, 1.61]])
    hull = cg.convex_hull(pts)
    assert {tuple(v) for v in hull} == {(0.0, 0.0), (0.0, 2.6)}


def test_hull_single_and_duplicate_points():
    assert cg.convex_hull(np.array([[2.0, 3.0]])).shape == (1, 2)
    assert cg.convex_hull(np.array([[2.0, 3.0], [2.0, 3.0]])).shape == (1, 2)


def _sandwich_hull_input():
    return np.array(json.loads((DATA / "sandwich_hull_ex_2_1.json").read_text())["points"])


def _hull_point_sets():
    rng = np.random.default_rng(7)
    for n in (3, 5, 40, 400):
        yield rng.normal(size=(n, 2)) * rng.uniform(0.1, 100.0)
    for n in (8, 97, 720):
        # every point a vertex, with rounding noise in the collinearity tests
        theta = 2.0 * np.pi * np.arange(n) / n
        yield np.stack([3.0 + 2.0 * np.cos(theta), -1.0 + 2.0 * np.sin(theta)], axis=1)
    for n in (10, 200):
        # lattice points: exact collinear runs and duplicates
        yield rng.integers(-4, 5, size=(n, 2)).astype(float)
    # points on the edges of a square, off them by less than the
    # collinearity tolerance
    s, jitter = rng.uniform(0.0, 10.0, 300), rng.uniform(-1e-12, 1e-12, 300)
    side = rng.integers(0, 4, 300)
    yield np.select(
        [side[:, None] == k for k in range(4)],
        [np.stack(c, axis=1) for c in ((s, jitter), (10.0 + jitter, s), (s, 10.0 + jitter), (jitter, s))],
    )
    yield _sandwich_hull_input()


def test_hull_matches_numpy_row_chain_bit_for_bit():
    for pts in _hull_point_sets():
        got = cg.convex_hull(pts)
        want = numpy_row_convex_hull(pts)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _mlc_inflations(monkeypatch, names=("ex_2_1", "ex_2_2"), radii=(2.0,), n_triples=16):
    """The (body, r_v, r_eta) of check_MLC's inflations at seed 0."""
    seen = []
    real = cg.minkowski_inflate

    def spy(body, r_v, r_eta):
        seen.append((body, r_v, r_eta))
        return real(body, r_v, r_eta)

    monkeypatch.setattr(cg, "minkowski_inflate", spy)
    for name in names:
        for R in radii:
            zoo.check_MLC(zoo.builtin(name), R, samples=SamplePlan(seed=0, n_triples=n_triples))
    monkeypatch.undo()
    return seen


def _mlc_inflate_point_sets(monkeypatch):
    """The candidate corners of check_MLC's inflations on ex_2_1 and
    ex_2_2: the point sets the former inflation hulled."""
    return [inflate_candidates(*call) for call in _mlc_inflations(monkeypatch)]


def test_hull_matches_half_chain_hull_bit_for_bit(monkeypatch):
    # the index chain run twice (lower, then on the reversed points) against
    # the former two scans of one `half` chain over float rows
    rng = np.random.default_rng(11)
    sets = list(_hull_point_sets())
    for n in (2, 3, 7, 50, 300):
        sets.append(rng.normal(size=(n, 2)) * rng.uniform(0.1, 50.0))
        # repeated x: a few columns, and a rounded grid with duplicates
        sets.append(np.stack([rng.integers(-3, 4, n).astype(float), rng.normal(size=n)], axis=1))
        sets.append(np.round(rng.normal(scale=2.0, size=(n, 2)), 1))
        # collinear: exact on a diagonal, rounded on a sloped line, and a column
        t = rng.uniform(-5.0, 5.0, n)
        sets.extend([np.stack([t, t], axis=1), np.stack([t, 0.3 * t + 1.0], axis=1)])
        sets.append(np.stack([np.full(n, 2.0), t], axis=1))
    # a turn of exactly eps = 1e-12 at (0.5, 0), which the chain drops
    sets.append(np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0], [1.0, 2e-12]]))
    mlc = _mlc_inflate_point_sets(monkeypatch)
    assert len(mlc) >= 32
    for pts in sets + mlc:
        got = cg.convex_hull(pts)
        want = half_chain_convex_hull(pts)
        assert got.shape == want.shape and np.array_equal(got, want), pts
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_hull_keeps_vertices_of_a_near_vertical_zigzag_column():
    # the (f, l) samples of the compact ex_2_1 triple in accept_05 hold a
    # column of about 15 points zig-zagging within |f| <= 5e-15; dropping
    # every eps-flat point at once (pruning, as the lower hull of a graph
    # may) loses its ends, the true vertices (0, 0) and (2.4e-16, 4.0)
    pts = _sandwich_hull_input()
    assert pts.shape == (520, 2)
    verts = {tuple(v) for v in cg.convex_hull(pts)}
    assert (0.0, 0.0) in verts
    assert (2.4492935982947064e-16, 4.0) in verts


def _assert_convex_ccw_loop(verts):
    """Every computed turn, the cross product of the edges into and out of
    a vertex, is positive, and the turns add up to one revolution: the
    loop is CCW and convex, as the locate step's vertex rule needs."""
    e_out = np.roll(verts, -1, axis=0) - verts
    e_in = np.roll(e_out, 1, axis=0)
    cross = e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0]
    assert np.all(cross > 0.0), verts
    turns = np.arctan2(cross, e_in[:, 0] * e_out[:, 0] + e_in[:, 1] * e_out[:, 1])
    assert float(np.sum(turns)) == pytest.approx(2.0 * np.pi, abs=1e-9)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 300))
def test_hulls_are_convex_ccw_loops(seed, n):
    rng = np.random.default_rng(seed)
    circle = rng.uniform(0.0, 2.0 * np.pi, n)
    for pts in (
        rng.normal(scale=rng.uniform(0.01, 50.0), size=(n, 2)) + rng.uniform(-9.0, 9.0, 2),
        np.stack([np.cos(circle), np.sin(circle)], axis=1) * rng.uniform(0.1, 10.0),
        np.round(rng.normal(scale=3.0, size=(n, 2))),
        np.stack([rng.integers(-3, 4, n).astype(float), rng.normal(size=n)], axis=1),
    ):
        hull = cg.convex_hull(pts)
        if len(hull) >= 3:
            _assert_convex_ccw_loop(hull)


_SLICES = {name: zoo.builtin(name).slices() for name in ("ex_2_1", "ex_2_2")}


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    st.sampled_from(sorted(_SLICES)),
    st.floats(0.0, 1.0),
    st.floats(-2.0, 2.0),
    st.booleans(),
    st.floats(1e-3, 64.0),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
)
def test_epigraphs_and_their_inflations_are_convex_ccw_loops(name, t, x, trusted, rise, r_v, r_eta):
    # production slices: trusted as the builders read them, raw on the
    # check_MLC window; ex_2_1's piecewise-linear slices carry rounding noise
    slices = _SLICES[name]
    if trusted:
        fn = slices.on_grid(t, x, 601)
    else:
        fn = slices.on_grid(t, x, 601, slices.halfwidth(t, x, 2.0), trusted=False)
    body = fl.build_epigraph(fn, fn.min_value() + rise)
    if len(body.vertices) >= 3:
        _assert_convex_ccw_loop(body.vertices)
    for radii in ((r_v, r_eta), (0.0, r_eta)):
        inflated = cg.minkowski_inflate(body, *radii)
        if len(inflated.vertices) >= 3:
            _assert_convex_ccw_loop(inflated.vertices)


def test_hull_rejects_bad_input():
    with pytest.raises(DimMismatch):
        cg.convex_hull(np.zeros((3, 3)))
    with pytest.raises(EmptyBody):
        cg.convex_hull(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        cg.convex_hull(np.array([[0.0, np.inf]]))


# ------------------------------------------------------------- support


# the support oracle normalizes the direction, so values are per unit direction
@pytest.mark.parametrize(
    "direction, value",
    [
        ((1.0, 0.0), 1.0),
        ((-1.0, 0.0), 0.0),
        ((0.0, 1.0), 1.0),
        ((1.0, 1.0), np.sqrt(2.0)),
    ],
)
def test_support_square(direction, value):
    u = np.asarray(direction, dtype=float)
    val, arg = support(cg.ConvexBody(SQUARE), u)
    assert val == pytest.approx(value, abs=1e-12)
    assert float(u @ arg) / np.linalg.norm(u) == pytest.approx(value, abs=1e-12)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_support_sublinear_and_scale_invariant(seed):
    rng = np.random.default_rng(seed)
    body = _random_poly(rng)
    u = rng.normal(size=2)
    w = rng.normal(size=2)
    u /= np.linalg.norm(u)
    w /= np.linalg.norm(w)
    nrm = float(np.linalg.norm(u + w))
    if nrm < 1e-6:
        return
    s = lambda d: support(body, d)[0]
    # sublinearity of the raw support function in normalized coordinates
    assert nrm * s(u + w) <= s(u) + s(w) + 1e-9
    assert s(2.5 * u) == pytest.approx(s(u), rel=1e-12)


# ------------------------------------------------------------- steiner


def test_steiner_triangle_matches_exterior_angle_oracle():
    got = cg.steiner(cg.ConvexBody(TRIANGLE))
    assert np.allclose(got, STEINER_TRIANGLE, rtol=0.0, atol=1e-12)
    assert np.allclose(exterior_angle_steiner(TRIANGLE), STEINER_TRIANGLE, atol=1e-12)


def test_steiner_square_center():
    assert np.allclose(cg.steiner(cg.ConvexBody(SQUARE)), STEINER_SQUARE, rtol=0.0, atol=1e-12)


def test_steiner_point_and_segment():
    assert np.allclose(cg.steiner(cg.ConvexBody(np.array([[2.0, -1.0]]))), [2.0, -1.0])
    seg = cg.ConvexBody(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert np.allclose(cg.steiner(seg), [1.0, 0.0], rtol=0.0, atol=1e-12)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_steiner_membership_and_translation(seed):
    rng = np.random.default_rng(seed)
    body = _random_poly(rng)
    s = cg.steiner(body)
    assert cg.distance(s, body) <= 1e-6
    shift = rng.uniform(-5.0, 5.0, 2)
    shifted = cg.ConvexBody(body.vertices + shift)
    assert np.allclose(cg.steiner(shifted), s + shift, atol=1e-9)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_steiner_vs_exterior_angle_oracle(seed):
    rng = np.random.default_rng(seed)
    body = _random_poly(rng)
    got = cg.steiner(body)
    want = exterior_angle_steiner(body.vertices)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * body_scale(body))


# ------------------------------------------------ steiner of E cap disc


def _outside_pair(rng):
    """A random polygon E and a centre z outside it, with d(z, E)."""
    body = _random_poly(rng)
    while True:
        z = rng.uniform(-9.0, 9.0, 2)
        d = cg.distance(z, body)
        if d > 0.0:
            return body, z, d


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_disc_steiner_matches_quadrature_oracle(seed):
    # the oracle errs by about diam / 3600 per corner, so each pair is
    # compared at unit radius, and similarity equivariance (within 1e-9)
    # carries the comparison back to the drawn scale
    rng = np.random.default_rng(seed)
    body, z, d = _outside_pair(rng)
    r = 2.0 * d
    unit = cg.ConvexBody((body.vertices - z) / r)
    got = cg.disc_steiner(unit, [[0.0, 0.0]], 1.0)[0]
    want = quadrature_disc_steiner(unit.vertices, [0.0, 0.0], 1.0)
    assert np.linalg.norm(got - want) <= 5e-4
    raw = cg.disc_steiner(body, z[None, :], r)[0]
    assert np.allclose(raw, z + r * got, rtol=0.0, atol=1e-9 * max(1.0, r))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_disc_steiner_covering_disc_is_exterior_angle_formula(seed):
    rng = np.random.default_rng(seed)
    body = _random_poly(rng)
    verts = body.vertices
    spread = float(np.max(np.linalg.norm(verts - verts.mean(axis=0), axis=1)))
    u = rng.normal(size=2)
    z = verts.mean(axis=0) + (3.0 * spread + rng.uniform(0.0, 5.0)) * u / np.linalg.norm(u)
    d = cg.distance(z, body)
    assert np.max(np.linalg.norm(verts - z, axis=1)) <= 2.0 * d
    got = cg.disc_steiner(body, z[None, :], 2.0 * d)[0]
    assert np.allclose(got, exterior_angle_steiner(verts), rtol=0.0, atol=1e-12)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_disc_steiner_translation_and_membership(seed):
    rng = np.random.default_rng(seed)
    body, z, d = _outside_pair(rng)
    s = cg.disc_steiner(body, z[None, :], 2.0 * d)[0]
    assert cg.distance(s, body) <= 1e-9
    assert np.linalg.norm(s - z) <= 2.0 * d + 1e-9
    shift = rng.uniform(-5.0, 5.0, 2)
    moved = cg.disc_steiner(cg.ConvexBody(body.vertices + shift), (z + shift)[None, :], 2.0 * d)
    assert np.allclose(moved[0], s + shift, rtol=0.0, atol=1e-9)


def test_disc_steiner_point_and_segment():
    point = cg.ConvexBody(np.array([[2.0, -1.0]]))
    assert np.array_equal(cg.disc_steiner(point, [[0.0, 0.0], [5.0, 5.0]], [9.0, 9.0]), [[2.0, -1.0]] * 2)
    # B((1, 1), 2) clips the segment x = 0, 0 <= y <= 3 to y <= 1 + sqrt 3
    seg = cg.ConvexBody(np.array([[0.0, 0.0], [0.0, 3.0]]))
    got = cg.disc_steiner(seg, [[1.0, 1.0]], 2.0)
    assert np.allclose(got, [[0.0, 0.5 * (1.0 + np.sqrt(3.0))]], rtol=0.0, atol=1e-12)


def test_disc_steiner_circular_segment():
    # B(0, 2) cuts x >= 1 to a circular segment: corners (1, +-sqrt 3) turn
    # by 2pi/3 each, and the 2pi/3 arc adds 2 (2 sin 60deg, 0), so the
    # Steiner point is (4pi/3 + 2 sqrt 3, 0) / (2pi)
    wide = cg.ConvexBody(np.array([[1.0, -5.0], [5.0, -5.0], [5.0, 5.0], [1.0, 5.0]]))
    got = cg.disc_steiner(wide, [[0.0, 0.0]], 2.0)
    assert np.allclose(got, [[2.0 / 3.0 + np.sqrt(3.0) / np.pi, 0.0]], rtol=0.0, atol=1e-12)


def test_distance_batches_match_single_points():
    rng = np.random.default_rng(3)
    body = _random_poly(rng)
    pts = rng.uniform(-9.0, 9.0, (50, 2))
    assert np.array_equal(cg.distance(pts, body), [cg.distance(p, body) for p in pts])
    with pytest.raises(DimMismatch):
        cg.distance(np.zeros((4, 3)), body)


def test_distance_reads_inf_or_nan_on_rows_with_a_non_finite_coordinate():
    # a NaN coordinate reads NaN, an infinite one +inf, with no warning;
    # the finite rows keep the bits they have alone
    inf, nan = np.inf, np.nan
    square = cg.ConvexBody(SQUARE)
    rng = np.random.default_rng(5)
    bad = np.array([[inf, 0.5], [0.5, inf], [-inf, 0.5], [0.5, -inf], [inf, -inf], [nan, inf], [0.5, nan]])
    want_bad = np.array([inf, inf, inf, inf, inf, nan, nan])
    rows = np.vstack([bad, rng.uniform(-3.0, 3.0, (40, 2))])
    perm = rng.permutation(len(rows))
    rows, is_bad = rows[perm], perm < len(bad)
    stack = cg.BodyStack([square, cg.ConvexBody(TRIANGLE + 2.0)])
    owner = rng.integers(0, 2, len(rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(cg.distance(bad[:3], square), [inf, inf, inf])
        assert cg.distance(bad[0], square) == inf and np.isnan(cg.distance(bad[-1], square))
        for bodies, own in ((square, None), (stack, owner)):
            got = cg.distance(rows, bodies, own)
            assert np.array_equal(got[is_bad], want_bad[perm[is_bad]], equal_nan=True)
            alone = cg.distance(rows[~is_bad], bodies, None if own is None else own[~is_bad])
            _assert_same_bits(got[~is_bad], alone)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _probe_points(rng, body):
    """Vertices, edge midpoints, points within a few eps of each edge line
    (eps the inside test's tolerance), and scattered points."""
    v = body.vertices
    ab = np.roll(v, -1, axis=0) - v
    mids = v + 0.5 * ab
    outward = np.stack([ab[:, 1], -ab[:, 0]], axis=1) / np.hypot(ab[:, 0], ab[:, 1])[:, None]
    eps = 1e-12 * body_scale(body)
    offsets = np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]) * eps
    near = (mids[:, None, :] + offsets[None, :, None] * outward[:, None, :]).reshape(-1, 2)
    return np.vstack([v, mids, near, rng.uniform(-12.0, 12.0, (100, 2))])


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_points_to_body_matches_dense_oracle_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    body = _random_poly(rng)
    pts = _probe_points(rng, body)
    want = dense_points_to_body(pts, body.vertices)
    # both the inside rows and the measured ones are exercised
    assert np.any(want == 0.0) and np.any(want > 0.0)
    _assert_same_bits(cg._points_to_body(pts, body), want)
    for degenerate in (body.vertices[:1], body.vertices[:2]):
        small = cg.ConvexBody(degenerate)
        assert len(small.vertices) == len(degenerate)
        _assert_same_bits(cg._points_to_body(pts, small), dense_points_to_body(pts, small.vertices))


def test_points_to_body_across_pair_blocks_matches_dense_oracle():
    # the square's 4 edges give blocks of _PAIR_BLOCK // 4 rows: the first
    # block lies wholly inside, the next straddles the boundary, the last
    # is partial
    body = cg.ConvexBody(SQUARE)
    step = cg._PAIR_BLOCK // 4
    rng = np.random.default_rng(5)
    pts = np.vstack([rng.uniform(0.1, 0.9, (step, 2)), rng.uniform(-1.0, 2.0, (step + 17, 2))])
    want = dense_points_to_body(pts, body.vertices)
    assert not np.any(want[:step]) and np.any(want[step:])
    _assert_same_bits(cg._points_to_body(pts, body), want)


def _rolled_stack(body):
    """The loop of body started one vertex on, as a stack of one."""
    return cg.ConvexBody._from_loop(np.roll(body.vertices, -1, axis=0)).stack


def _assert_locate_matches_scan(pts, stack) -> int:
    """The locate step settles only rows the full scan puts inside, and
    distances with it are bit for bit the scan's. Returns the rows settled."""
    settled = cg._located_inside(pts, stack)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cg, "_LOCATE_MIN", np.iinfo(np.intp).max)
        scan = cg._points_to_body(pts, stack)
        mp.setattr(cg, "_LOCATE_MIN", 0)
        located = cg._points_to_body(pts, stack)
    assert not np.any(scan[settled])
    assert np.array_equal(located.view(np.uint64), scan.view(np.uint64))
    return int(np.sum(settled))


@pytest.fixture(scope="module")
def production_point_queries(tmp_path_factory):
    """(points, one-polygon stack) of every distance and containment call
    that `represent` (both builders, production grids, at the 33-control
    floor) and `check_MLC` make on ex_2_1 and ex_2_2 at seed 0."""
    from hamrep import cli

    seen = []
    real = cg._points_to_body

    def spy(points, bodies, owner=None):
        stack = bodies.stack if isinstance(bodies, cg.ConvexBody) else bodies
        if len(stack) == 1 and stack.counts[0] >= 3:
            seen.append((np.array(points, dtype=float), stack))
        return real(points, bodies, owner)

    out = tmp_path_factory.mktemp("represent")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cg, "_points_to_body", spy)
        for name in ("ex_2_1", "ex_2_2"):
            doc = {
                "command": "represent",
                "hamiltonian": name,
                "kind": "both",
                "grids": {"a_plan": {"n_box": 6, "n_radii": 3, "n_angles": 12}},
                "seed": 0,
                "output_dir": str(out),
            }
            cli.run(cli.parse_config(doc), quiet=True)
            zoo.check_MLC(zoo.builtin(name), 2.0, samples=SamplePlan(seed=0))
    return seen


def test_locate_step_matches_the_scan_on_production_bodies(production_point_queries):
    settled = sum(_assert_locate_matches_scan(pts, stack) for pts, stack in production_point_queries)
    rows = sum(len(pts) for pts, _ in production_point_queries)
    # the lift points are vertices of their rung polygons: most rows settle
    assert len(production_point_queries) >= 40 and settled > rows // 2


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_locate_step_matches_the_scan_on_random_bodies(seed):
    # hulls of scattered, circular and lattice clouds (lattice hulls have
    # axis-parallel edges), a translated loop, which need not start at its
    # least vertex once rounding ties two x, and the loop started anywhere
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    circle = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    clouds = (
        rng.normal(scale=rng.uniform(0.01, 50.0), size=(n, 2)),
        np.stack([3.0 * np.cos(circle), np.sin(circle)], axis=1) * rng.uniform(0.1, 10.0),
        np.round(rng.normal(scale=3.0, size=(n, 2))),
    )
    shift = rng.uniform(-5.0, 5.0, 2)
    settled = 0
    for pts in clouds:
        body = cg.ConvexBody(pts + shift)
        shifted = body.vertices + rng.uniform(-3.0, 3.0, 2)
        rolled = np.roll(body.vertices, int(rng.integers(1, len(body.vertices) + 1)), axis=0)
        for K in (body, cg.ConvexBody._from_loop(shifted), cg.ConvexBody._from_loop(rolled)):
            v = K.vertices
            lo, hi = v.min(axis=0), v.max(axis=0)
            far = lo + rng.uniform(-3.0, 4.0, (40, 2)) * np.maximum(hi - lo, 1.0)
            bad = rng.uniform(lo, hi, (6, 2))
            bad[[0, 1], [0, 1]] = np.nan
            bad[[2, 3], [0, 1]] = np.inf
            bad[[4, 5], [1, 0]] = -np.inf
            probes = np.vstack([_probe_points(rng, K), far, bad])
            probes = probes[rng.permutation(len(probes))]
            with np.errstate(invalid="ignore", over="ignore"):
                settled += _assert_locate_matches_scan(probes, K.stack)
                # the chains, and so the rows settled, do not depend on the start
                assert np.array_equal(
                    cg._located_inside(probes, K.stack), cg._located_inside(probes, _rolled_stack(K))
                )
    assert settled > 0


def _mixed_bodies(rng, n_bodies, n_max=12):
    """Random bodies of mixed vertex counts, always with a point, a segment
    and a polygon among them, so the stack pads some rows."""
    counts = [1, 2, 3] + [int(rng.integers(1, n_max + 1)) for _ in range(n_bodies - 3)]
    rng.shuffle(counts)
    bodies = []
    for n in counts:
        while True:
            body = cg.ConvexBody(rng.normal(scale=2.0, size=(n, 2)) + rng.uniform(-4.0, 4.0, 2))
            # redraw a degenerate point, segment or triangle
            if n > 3 or len(body.vertices) == n:
                break
        bodies.append(body)
    return bodies


def _assert_stacked_kernels_match(rng, bodies, rows_per_body):
    stack = cg.BodyStack(bodies)
    owner = np.concatenate([np.full(rows_per_body, b) for b in range(len(bodies))])
    pts = []
    for body in bodies:
        probes = _probe_points(rng, body) if len(body.vertices) >= 3 else body.vertices
        fill = rng.uniform(-9.0, 9.0, (max(0, rows_per_body - len(probes)), 2))
        pts.append(np.vstack([probes, fill])[:rows_per_body])
    pts = np.vstack(pts)
    order = rng.permutation(len(owner))
    owner, pts = owner[order], pts[order]
    d = cg.distance(pts, stack, owner)
    for b, body in enumerate(bodies):
        rows = owner == b
        _assert_same_bits(d[rows], dense_points_to_body(pts[rows], body.vertices))
    # the selection's radius 2 d, and radii that clip or swallow the body
    far = np.flatnonzero(d > 0.0)
    radii = 2.0 * d[far] * rng.choice([1.0, 0.6, 3.0], len(far))
    radii = np.maximum(radii, d[far] * (1.0 + 1e-9))
    got = cg.disc_steiner(stack, pts[far], radii, owner[far])
    for b, body in enumerate(bodies):
        rows = owner[far] == b
        want = per_body_disc_steiner(body.vertices, pts[far][rows], radii[rows])
        _assert_same_bits(got[rows], want)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_stacked_kernels_match_per_body_oracles_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    bodies = _mixed_bodies(rng, int(rng.integers(3, 9)))
    assert len({len(b.vertices) for b in bodies}) >= 3
    _assert_stacked_kernels_match(rng, bodies, 40)


def test_stacked_kernels_across_pair_blocks_match_per_body_oracles():
    # 12 columns give blocks of _PAIR_BLOCK // 12 rows; 3 bodies x 4000 rows
    # make one full block and a partial one, each mixing bodies
    rng = np.random.default_rng(9)
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, 12))
    ellipse = cg.ConvexBody(np.stack([3.0 * np.cos(ang), np.sin(ang)], axis=1))
    bodies = [ellipse, _random_poly(rng), cg.ConvexBody(SQUARE)]
    stack = cg.BodyStack(bodies)
    assert stack.ax.shape[1] == 12 and 3 * 4000 > cg._PAIR_BLOCK // 12
    _assert_stacked_kernels_match(rng, bodies, 4000)


def test_body_stack_rejects_missing_or_misshapen_owners():
    bodies = [cg.ConvexBody(SQUARE), cg.ConvexBody(TRIANGLE)]
    stack = cg.BodyStack(bodies)
    with pytest.raises(ValueError):
        cg.distance(np.zeros((3, 2)), stack)
    with pytest.raises(DimMismatch):
        cg.disc_steiner(stack, np.ones((3, 2)) * 5.0, 6.0, owner=[0, 1])
    with pytest.raises(EmptyBody):
        cg.BodyStack([])
    # a stack of one is the body itself
    pts = np.array([[0.5, 0.5], [3.0, -1.0]])
    one = cg.BodyStack(bodies[:1])
    assert np.array_equal(cg.distance(pts, one, owner=[0, 0]), cg.distance(pts, bodies[0]))


# ----------------------------------------------------------- hausdorff


def test_hausdorff_identity_and_shift():
    A = cg.ConvexBody(SQUARE)
    assert cg.hausdorff(A, A) == 0.0
    B = cg.ConvexBody(SQUARE + np.array([0.75, 0.0]))
    assert cg.hausdorff(A, B) == pytest.approx(0.75, abs=1e-9)


def _identity_errors(K, s, r_v, r_eta):
    """Relative errors of H(K, K + s) = |s| and H(K, K + box) = hypot(r_v,
    r_eta), each the worse of both argument orders."""
    errs = []
    for L, want in (
        (cg.ConvexBody(K.vertices + s), float(np.hypot(*s))),
        (cg.minkowski_inflate(K, r_v, r_eta), float(np.hypot(r_v, r_eta))),
    ):
        got = (cg.hausdorff(K, L), cg.hausdorff(L, K))
        errs.append(max(abs(g - want) for g in got) / max(1.0, want))
    return errs


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_hausdorff_exact_identities_on_points_segments_and_polygons(seed):
    rng = np.random.default_rng(seed)
    poly = _random_poly(rng)
    bodies = (cg.ConvexBody(poly.vertices[:1]), cg.ConvexBody(poly.vertices[:2]), poly)
    assert [len(K.vertices) for K in bodies[:2]] == [1, 2]
    s = rng.uniform(-3.0, 3.0, 2)
    r = rng.uniform(0.1, 3.0, 2)
    for K in bodies:
        for r_v, r_eta in ((r[0], r[1]), (0.0, r[1]), (r[0], 0.0)):
            assert max(_identity_errors(K, s, r_v, r_eta)) <= 1e-12


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_hausdorff_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    A, B = _random_poly(rng), _random_poly(rng)
    got = cg.hausdorff(A, B)
    want = brute_hausdorff(A.vertices, B.vertices)
    assert got == pytest.approx(want, abs=1e-7)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_hausdorff_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    A, B, C = (_random_poly(rng) for _ in range(3))
    assert cg.hausdorff(A, B) == cg.hausdorff(B, A)
    assert cg.hausdorff(A, C) <= cg.hausdorff(A, B) + cg.hausdorff(B, C) + 1e-9


# ---------------------------------------------- projection and friends


def test_project_point_square():
    body = cg.ConvexBody(SQUARE)
    assert np.allclose(project_point(np.array([2.0, 0.5]), body), [1.0, 0.5])
    inside = np.array([0.25, 0.75])
    assert np.allclose(project_point(inside, body), inside)


def test_proj_map_inside_is_singleton():
    body = cg.ConvexBody(SQUARE)
    P = proj_map(np.array([0.5, 0.5]), body)
    assert P.vertices.shape == (1, 2)


def test_proj_map_outside_contains_projection():
    body = cg.ConvexBody(SQUARE)
    y = np.array([3.0, 0.5])
    P = proj_map(y, body)
    # P = K cap B(y, 2 d): the nearest point is at distance d, inside
    assert cg.distance(np.array([1.0, 0.5]), P) <= 1e-6
    assert cg.containment_gap(body, P) <= 1e-9


def test_ball_and_inflate():
    B = ball(np.array([1.0, -2.0]), 2.0, n=720)
    val, _ = support(B, np.array([1.0, 0.0]))
    assert val == pytest.approx(3.0, abs=1e-4)
    fat = cg.minkowski_inflate(cg.ConvexBody(SQUARE), 0.5, 0.25)
    v, _ = support(fat, np.array([1.0, 0.0]))
    h, _ = support(fat, np.array([0.0, 1.0]))
    assert v == pytest.approx(1.5, abs=1e-3)
    assert h == pytest.approx(1.25, abs=1e-3)


def _assert_same_inflation(body, r_v, r_eta):
    # equal values; of two points that differ only in the sign of a zero
    # coordinate, np.unique in the hull keeps either, and no distance reads it
    got = cg.minkowski_inflate(body, r_v, r_eta).vertices
    want = all_corners_inflate(body, r_v, r_eta).vertices
    assert got.shape == want.shape and np.array_equal(got, want), (body.vertices, r_v, r_eta)


def test_minkowski_inflate_matches_all_corner_hull_on_zoo_mlc_polygons(monkeypatch):
    seen = _mlc_inflations(monkeypatch, zoo.names(), (0.5, 2.0), 8)
    # ex_2_2 inflates with k|x-y| = 0, ex_2_1 with w = 0
    assert any(r_v == 0.0 < r_eta for _, r_v, r_eta in seen)
    assert any(r_eta == 0.0 < r_v for _, r_v, r_eta in seen)
    for body, r_v, r_eta in seen:
        for radii in ((r_v, r_eta), (0.0, r_eta), (r_v, 0.0), (0.0, 0.0)):
            _assert_same_inflation(body, *radii)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_minkowski_inflate_matches_all_corner_hull_on_random_bodies(seed):
    # radii are 0 or at least 1e-3: far below the hull's eps band its rule
    # can drop other points of one vertex's tiny corner cluster
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    circle = rng.uniform(0.0, 2.0 * np.pi, n)
    clouds = (
        rng.normal(scale=rng.uniform(0.01, 50.0), size=(n, 2)),
        np.stack([np.cos(circle), np.sin(circle)], axis=1) * rng.uniform(0.1, 10.0),
        np.round(rng.normal(scale=3.0, size=(n, 2))),  # lattice: axis-parallel and collinear edges
    )
    shift = rng.uniform(-5.0, 5.0, 2)
    radii = [0.0 if rng.random() < 0.3 else float(rng.uniform(1e-3, 5.0)) for _ in range(4)]
    for pts in clouds:
        body = cg.ConvexBody(pts + shift)
        for small in (body, cg.ConvexBody(body.vertices[:1]), cg.ConvexBody(body.vertices[:2])):
            _assert_same_inflation(small, radii[0], radii[1])
            _assert_same_inflation(small, radii[2], radii[3])


def _sixty_four_gon():
    # no axis-parallel edge: each vertex's normal cone meets one quadrant,
    # or two at the four vertices extreme along an axis
    ang = 2.0 * np.pi * (np.arange(64) + 0.25) / 64
    return cg.ConvexBody(np.stack([np.cos(ang), np.sin(ang)], axis=1))


def test_minkowski_inflate_hulls_only_candidate_corners(monkeypatch):
    # radii within sqrt(eps) = 1e-6 leave the inflation to the general
    # hull, which then sees only the 64 + 4 candidate corners
    body = _sixty_four_gon()
    sizes = []
    real = cg.convex_hull
    monkeypatch.setattr(cg, "convex_hull", lambda pts: sizes.append(len(pts)) or real(pts))
    cg.minkowski_inflate(body, 1e-7, 5e-8)
    assert sizes == [64 + 4]


def test_inflating_a_polygon_calls_no_hull(monkeypatch):
    calls = _mlc_inflations(monkeypatch)
    body = _sixty_four_gon()
    assert sum(len(b.vertices) >= 3 for b, _, _ in calls) >= 16

    def no_hull(pts):
        raise AssertionError("convex_hull called")

    monkeypatch.setattr(cg, "convex_hull", no_hull)
    # every vertex of the 64-gon and all four extreme corners stay
    assert len(cg.minkowski_inflate(body, 0.5, 0.25).vertices) == 64 + 4
    for b, r_v, r_eta in calls:
        if len(b.vertices) >= 3:
            cg.minkowski_inflate(b, r_v, r_eta)


def _thin_or_lattice_body(rng):
    kind = int(rng.integers(0, 4))
    n = int(rng.integers(3, 30))
    if kind == 0:
        # a sliver: its turns and its corners' turns near the hull's eps
        t = rng.uniform(-1.0, 1.0, n)
        pts = np.stack([t, rng.uniform(-3.0, 3.0) * t + rng.normal(scale=10.0 ** rng.uniform(-14, -3), size=n)], axis=1)
    elif kind == 1:
        # lattice: axis-parallel edges, exact collinear runs of corners
        pts = np.round(rng.normal(scale=3.0, size=(n, 2))) * rng.choice([0.25, 0.5, 1.0])
    elif kind == 2:
        # a thin rectangle along an axis
        w = 10.0 ** rng.uniform(-12, 0)
        pts = np.array([[0.0, 0.0], [w, 0.0], [w, 1.0], [0.0, 1.0]])[:, :: int(rng.choice([1, -1]))]
    else:
        ang = rng.uniform(0.0, 2.0 * np.pi, n)
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return cg.ConvexBody(pts * 10.0 ** rng.uniform(-2, 4) + rng.uniform(-5.0, 5.0, 2))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_minkowski_inflate_matches_candidate_corner_hull_bit_for_bit(seed):
    # radii of every size, from the hull's eps band to beyond the body, and
    # half and whole edge lengths, where corners of neighbours line up
    rng = np.random.default_rng(seed)
    body = _thin_or_lattice_body(rng)
    verts = body.vertices
    edges = np.abs(np.concatenate([verts[1:], verts[:1]]) - verts).ravel()
    scale = float(np.max(np.abs(verts)))

    def radius():
        u = rng.random()
        if u < 0.2:
            return 0.0
        if u < 0.4 and np.any(edges > 0.0):
            return float(rng.choice(edges[edges > 0.0]) * rng.choice([0.25, 0.5, 1.0]))
        return float(10.0 ** rng.uniform(-14, 1) * max(1.0, scale))

    for _ in range(6):
        r_v, r_eta = radius(), radius()
        got = cg.minkowski_inflate(body, r_v, r_eta).vertices
        want = candidate_corner_inflate(body, r_v, r_eta).vertices
        assert got.shape == want.shape and np.array_equal(got, want), (verts, r_v, r_eta)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_minkowski_inflate_matches_candidate_corner_hull_on_zoo_mlc_calls(monkeypatch):
    for body, r_v, r_eta in _mlc_inflations(monkeypatch, zoo.names(), (0.5, 2.0), 8):
        got = cg.minkowski_inflate(body, r_v, r_eta).vertices
        want = candidate_corner_inflate(body, r_v, r_eta).vertices
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_intersect_and_containment():
    A = cg.ConvexBody(SQUARE)
    # SQUARE intersected with its shift by (0.5, 0)
    C = cg.ConvexBody(np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0]]))
    assert cg.containment_gap(A, C) <= 1e-9
    assert cg.containment_gap(C, A) == pytest.approx(0.5, abs=1e-9)


def test_geometry_suite_fast_slice_passes():
    reports = cg.geometry_suite(n_pairs=40)
    assert [r.check for r in reports] == [
        "selection_lipschitz",
        "steiner_lipschitz",
        "steiner_membership",
        "steiner_triangle_oracle",
        "hausdorff_exact_identities",
        "hausdorff_metric",
    ]
    assert all(r.passed for r in reports)


def test_geometry_suite_fails_the_pair_checks_on_no_pair():
    reports = {r.check: r for r in cg.geometry_suite(n_pairs=0)}
    for name in ("selection_lipschitz", "steiner_lipschitz", "steiner_membership", "hausdorff_exact_identities"):
        assert reports[name].verdict == "fail" and reports[name].worst_margin == -np.inf
        assert reports[name].witnesses == [{"note": "no sample judged"}]
    assert reports["steiner_triangle_oracle"].passed and reports["hausdorff_metric"].passed


def test_projection_lipschitz_on_the_polygonized_projection_map():
    # the geometry suite's 200 seed-0 pairs, drawn in its order, audited on
    # the polygonized P(y, K): 5-Lipschitz jointly in point and body, with
    # 1e-3 slack for the 0.5-degree arcs (worst margin -2.418)
    rng = SamplePlan(seed=0).rng(11)
    worst = -np.inf
    for i in range(200):
        K = cg._random_polygon(rng)
        if i % 2 == 0:
            D = cg.ConvexBody(K.vertices + rng.normal(0.0, 0.3, K.vertices.shape))
        else:
            D = cg._random_polygon(rng)
        hKD = cg.hausdorff(K, D)
        x = rng.uniform(-9.0, 9.0, 2)
        y = x + rng.normal(0.0, 0.5, 2) if i % 2 == 0 else rng.uniform(-9.0, 9.0, 2)
        lhs = cg.hausdorff(proj_map(x, K), proj_map(y, D))
        worst = max(worst, lhs - 5.0 * (hKD + float(np.linalg.norm(x - y))))
    assert worst <= 1e-3


def test_selection_lipschitz_fails_on_a_discontinuous_selection(monkeypatch):
    real = cg.disc_steiner

    def striped(bodies, centers, radii, owner=None):
        # jumps by 100 at every 0.1 step of the centre's first coordinate
        step = np.floor(10.0 * np.asarray(centers)[:, :1]) % 2.0
        return real(bodies, centers, radii, owner) + 100.0 * step

    monkeypatch.setattr(cg, "disc_steiner", striped)
    reports = {r.check: r for r in cg.geometry_suite(SamplePlan(seed=0), n_pairs=40)}
    assert reports["selection_lipschitz"].verdict == "fail"
    assert all(r.passed for name, r in reports.items() if name != "selection_lipschitz")


@pytest.mark.parametrize("direction", ["a_into_b", "b_into_a"])
def test_hausdorff_exact_identities_fail_on_a_one_sided_hausdorff(monkeypatch, direction):
    # the suite alternates the argument order, so either directed excess alone fails
    def one_sided(a, b):
        return cg.containment_gap(b, a) if direction == "a_into_b" else cg.containment_gap(a, b)

    monkeypatch.setattr(cg, "hausdorff", one_sided)
    reports = {r.check: r for r in cg.geometry_suite(SamplePlan(seed=0), n_pairs=40)}
    assert reports["hausdorff_exact_identities"].verdict == "fail"


def test_hausdorff_exact_identities_fail_when_inflate_ignores_r_v(monkeypatch):
    real = cg.minkowski_inflate
    monkeypatch.setattr(cg, "minkowski_inflate", lambda body, r_v, r_eta: real(body, 0.0, r_eta))
    reports = {r.check: r for r in cg.geometry_suite(SamplePlan(seed=0), n_pairs=40)}
    assert reports["hausdorff_exact_identities"].verdict == "fail"
    assert all(r.passed for name, r in reports.items() if name != "hausdorff_exact_identities")
