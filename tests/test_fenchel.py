import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamrep import fenchel as fl
from hamrep import zoo
from hamrep.builder import build
from hamrep.errors import CapTooLow, ImproperFunction, UnboundedSummand
from hamrep.exprs import compile_hamiltonian

from _oracles import (
    EPISUM_SUM_AT_ZERO,
    brute_conjugate,
    brute_conjugate_values,
    body_scale,
    brute_hausdorff,
    grid_conjugate,
    midpoint_defect,
    monotone_chain_lower_hull,
    numpy_row_convex_hull,
    restrict,
)

P_GRID = fl.UniformGrid(-50.0, 50.0, 10001)
V_GRID = fl.UniformGrid(-2.0, 2.0, 601)


def _on_grid(values_of_p):
    ps = P_GRID.nodes()
    return fl.ConvexGridFunction(P_GRID, values_of_p(ps))


# ----------------------------------------------------------- grid, fn


def test_uniform_grid_nodes_and_h():
    g = fl.UniformGrid(-1.0, 3.0, 5)
    assert g.h == 1.0
    assert np.allclose(g.nodes(), [-1.0, 0.0, 1.0, 2.0, 3.0])


def test_grid_function_interp_propagates_inf():
    g = fl.UniformGrid(-2.0, 2.0, 5)
    f = fl.ConvexGridFunction(g, np.array([np.inf, 1.0, 0.0, 1.0, np.inf]))
    got = f(np.array([-1.5, -0.5, 0.0, 0.5, 1.5]))
    # any stencil touching an inf node is inf; interior interp is linear
    assert np.isinf(got[0]) and np.isinf(got[4])
    assert got[1] == pytest.approx(0.5) and got[3] == pytest.approx(0.5)
    assert got[2] == 0.0


def test_restrict_drops_outside_nodes():
    g = fl.UniformGrid(-2.0, 2.0, 5)
    f = fl.ConvexGridFunction(g, np.zeros(5))
    nodes, vals = restrict(f, -1.0, 1.0).finite_slice()
    assert nodes.tolist() == [-1.0, 0.0, 1.0] and vals.tolist() == [0.0, 0.0, 0.0]
    # an empty window leaves no finite node: the improper guard fires
    with pytest.raises(ImproperFunction):
        restrict(f, 5.0, 6.0)


# ----------------------------------------------------------- conjugate


def test_conjugate_quadratic_closed_form():
    # (p^2/2)* = v^2/2
    L = grid_conjugate(_on_grid(lambda p: 0.5 * p * p), V_GRID)
    vs = V_GRID.nodes()
    assert float(np.max(np.abs(L.values - 0.5 * vs * vs))) <= 1e-5


def test_conjugate_abs_window_form_and_trust_restriction():
    # over the window, |p|* = max(0, 50(|v| - 1)); inside the slope trust
    # interval [-1, 1] this is the indicator value 0
    L = grid_conjugate(_on_grid(np.abs), V_GRID)
    vs = V_GRID.nodes()
    want = np.maximum(0.0, 50.0 * (np.abs(vs) - 1.0))
    assert float(np.max(np.abs(L.values - want))) <= 1e-9
    lo, hi = fl.slope_range(_on_grid(np.abs))
    trusted = restrict(L, lo, hi)
    fin = np.isfinite(trusted.values)
    assert float(np.max(np.abs(trusted.values[fin]))) <= 1e-9
    assert np.all(np.abs(vs[fin]) <= 1.0 + 1e-12)


def test_conjugate_linear_window_form():
    # (0.5 p)* over the window is the cone 50|v - 0.5|; restricting to
    # the slope trust interval collapses the domain to the single slope
    L = grid_conjugate(_on_grid(lambda p: 0.5 * p), V_GRID)
    vs = V_GRID.nodes()
    want = 50.0 * np.abs(vs - 0.5)
    assert float(np.max(np.abs(L.values - want))) <= 1e-6
    lo, hi = fl.slope_range(_on_grid(lambda p: 0.5 * p))
    # the trust interval of a linear function is a point; pad by one cell
    # so it captures the nearest node
    trusted = restrict(L, lo - V_GRID.h, hi + V_GRID.h)
    fin = np.isfinite(trusted.values)
    assert fin.any()
    assert np.all(np.abs(vs[fin] - 0.5) <= 2.0 * V_GRID.h)


def test_all_inf_function_rejected_at_construction():
    g = fl.UniformGrid(-1.0, 1.0, 33)
    with pytest.raises(ImproperFunction):
        fl.ConvexGridFunction(g, np.full(33, np.inf))


@pytest.mark.parametrize(
    "values",
    [
        [0.0, np.nan, 1.0, 2.0, 3.0],
        [0.0, 1.0, -np.inf, 2.0, 3.0],
        [np.nan, np.inf, np.inf, np.inf, np.inf],
        [2e12, 1e12, np.inf, 5e12, np.inf],
        [1.0, np.inf, 0.0, 1.0, 2.0],
        [1.0, 0.0, 1e12, 0.0, 1.0],
    ],
    ids=["nan", "neg_inf", "nan_among_inf", "all_above_threshold", "gap", "gap_at_threshold"],
)
def test_improper_values_rejected_at_construction(values):
    with pytest.raises(ImproperFunction):
        fl.ConvexGridFunction(fl.UniformGrid(-2.0, 2.0, 5), values)


@pytest.mark.parametrize("name", zoo.names())
def test_every_lagrangian_slice_is_midpoint_convex(name):
    # L = H* is convex by construction, so nothing checks it at run time;
    # every on_grid slice, raw and trusted, meets the bound the former
    # construction-time check held a convex grid function to
    slices = zoo.builtin(name).slices()
    for t in (0.25, 0.75):
        for x in (-1.0, 0.0, 0.6):
            for trusted in (False, True):
                defect, bound = midpoint_defect(slices.on_grid(t, x, trusted=trusted))
                assert defect <= bound, (t, x, trusted, defect, bound)


def test_finite_run_is_kept_for_slices_and_minimum():
    g = fl.UniformGrid(-2.0, 2.0, 5)
    fn = fl.ConvexGridFunction(g, [3e12, 2.0, 1.0, 1e12 - 1.0, np.inf])
    nodes, vals = fn.finite_slice()
    assert nodes.tolist() == [-1.0, 0.0, 1.0] and vals.tolist() == [2.0, 1.0, 1e12 - 1.0]
    assert fn.min_value() == 1.0 and fn.values.tolist()[::4] == [np.inf, np.inf]


def test_grid_nodes_are_built_once_and_read_only():
    g = fl.UniformGrid(-1.0, 3.0, 5)
    nodes = g.nodes()
    assert g.nodes() is nodes and not nodes.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 7.0
    # equal grids stay equal, and each builds its own nodes
    assert fl.UniformGrid(-1.0, 3.0, 5) == g and fl.UniformGrid(-1.0, 3.0, 5).nodes() is not nodes


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_conjugate_matches_brute_force(a, b, c):
    # (a(p-b)^2 + c)* at probe slopes, against the dense-grid oracle
    h = lambda p: a * (p - b) ** 2 + c
    L = grid_conjugate(_on_grid(h), V_GRID)
    for v in (-1.5, -0.4, 0.0, 0.7, 1.5):
        want = brute_conjugate(h, v)
        assert float(L(np.array([v]))[0]) == pytest.approx(want, abs=2e-3)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_fenchel_young_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.3, 2.0), rng.uniform(-1.5, 1.5)
    h = _on_grid(lambda p: a * np.abs(p - b))
    L = grid_conjugate(h, V_GRID)
    ps = rng.uniform(-3.0, 3.0, 16)
    vs = rng.uniform(-1.9, 1.9, 16)
    hp = h(ps)
    lv = L(vs)
    lhs = np.subtract.outer(ps * 0.0, np.zeros(16)) + np.outer(ps, vs)
    rhs = hp[:, None] + lv[None, :]
    mask = np.isfinite(rhs)
    assert np.all(lhs[mask] <= rhs[mask] + 1e-6)


def test_biconjugate_recovers_convex_function():
    h = _on_grid(lambda p: np.sqrt(1.0 + p * p))
    bc = grid_conjugate(grid_conjugate(h, P_GRID), P_GRID)
    fin = np.isfinite(bc.values)
    err = np.abs(bc.values[fin] - h.values[fin])
    ps = P_GRID.nodes()[fin]
    # the conjugate of sqrt(1+p^2) has infinite slope at its domain edge,
    # so accuracy decays as the maximizer approaches the edge: tight for
    # small p, grid-edge limited further out
    assert float(np.max(err[np.abs(ps) <= 2.0])) <= 1e-3
    assert float(np.max(err[np.abs(ps) <= 40.0])) <= 5e-2


def test_biconjugate_is_convex_envelope():
    # double well: envelope is 0 on [-1, 1]
    h = _on_grid(lambda p: np.minimum((p - 1.0) ** 2, (p + 1.0) ** 2))
    bc = grid_conjugate(grid_conjugate(h, P_GRID), P_GRID)
    ps = P_GRID.nodes()
    flat = np.abs(ps) <= 0.9
    assert float(np.max(np.abs(bc.values[flat]))) <= 1e-3
    # valid only while the envelope slope stays inside the mid grid span
    outside = (np.abs(ps) >= 1.5) & (np.abs(ps) <= 1.9)
    want = np.minimum((ps - 1.0) ** 2, (ps + 1.0) ** 2)
    assert float(np.max(np.abs(bc.values[outside] - want[outside]))) <= 1e-2


def test_conjugate_values_matches_conjugate():
    # one query over every node of a grid gives, node by node, the value
    # a query at that node alone gives
    h = _on_grid(lambda p: np.sqrt(1.0 + p * p))
    L = grid_conjugate(h, V_GRID)
    vals = np.array([fl.conjugate_values(h, [v])[0] for v in V_GRID.nodes()])
    assert np.array_equal(L.values, vals)


MUTATION_CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "accept_02_mutation.json"


def _spec(name):
    if name == "accept_02_mutation":
        return compile_hamiltonian(json.loads(MUTATION_CONFIG.read_text())["hamiltonian"])
    return zoo.builtin(name)


def _assert_close(got, want, scale):
    """Same +inf pattern, finite values within 1e-12 relative to scale."""
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= 1e-12 * np.maximum(1.0, scale[fin]))


@pytest.mark.parametrize("name", [*zoo.names(), "accept_02_mutation"])
def test_conjugate_values_match_brute_force_on_zoo(name):
    # production p-grid, a 601-node v-window wider than most slope ranges
    spec = _spec(name)
    w = fl.UniformGrid(-3.0, 3.0, 601).nodes()
    for x in (-1.5, -0.5, 0.0, 0.7, 2.0):
        fn = fl.ConvexGridFunction(P_GRID, np.asarray(spec.eval(0.5, x, P_GRID.nodes()), dtype=float))
        want = brute_conjugate_values(P_GRID.nodes(), fn.values, w)
        _assert_close(fl.conjugate_values(fn, w), want, np.abs(want))


def _term_scale(fn, w):
    # size of the terms w p and f(p) whose difference the maximum takes
    nodes, vals = fn.finite_slice()
    return np.abs(w) * float(np.max(np.abs(nodes))) + float(np.max(np.abs(vals)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=40),
    st.integers(0, 6),
    st.integers(0, 6),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
)
def test_conjugate_values_match_brute_force_on_nonconvex_values(vals, pad_lo, pad_hi, w):
    # arbitrary (non-convex) values with +inf runs at either end; the
    # +-1e6 and 1e13 queries lie beyond every hull slope, the last one
    # past the +inf threshold
    values = np.concatenate([np.full(pad_lo, np.inf), vals, np.full(pad_hi + 1, np.inf)])
    fn = fl.ConvexGridFunction(fl.UniformGrid(-3.0, 2.0, len(values)), values)
    w = np.array(w + [-1e6, 1e6, 1e13])
    want = brute_conjugate_values(fn.grid.nodes(), fn.values, w)
    _assert_close(fl.conjugate_values(fn, w), want, _term_scale(fn, w))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    st.integers(2, 30),
    st.data(),
    st.floats(-100.0, 100.0),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
)
def test_conjugate_values_of_single_finite_node(count, data, value, w):
    # one finite node p0: the conjugate is the line w p0 - f(p0)
    k = data.draw(st.integers(0, count - 1))
    values = np.full(count, np.inf)
    values[k] = value
    fn = fl.ConvexGridFunction(fl.UniformGrid(-1.0, 4.0, count), values)
    w = np.array(w)
    want = brute_conjugate_values(fn.grid.nodes(), fn.values, w)
    assert np.array_equal(fl.conjugate_values(fn, w), want)


def test_conjugate_hull_is_built_once_per_function(monkeypatch):
    built = []
    real = fl._slope_hull

    def counting(nodes, vals):
        built.append(len(nodes))
        return real(nodes, vals)

    monkeypatch.setattr(fl, "_slope_hull", counting)
    fn = _on_grid(lambda p: np.maximum(np.abs(p) - 1.0, 0.0))
    first = fl.conjugate_values(fn, np.array([0.5]))
    again = fl.conjugate_values(fn, np.array([0.5, -2.0]))
    grid_conjugate(fn, V_GRID)
    assert built == [P_GRID.count]
    assert again[0] == first[0]


def test_slope_range_reports_window_edge_slopes():
    lo, hi = fl.slope_range(_on_grid(lambda p: np.sqrt(1.0 + p * p)))
    assert lo == pytest.approx(-1.0, abs=1e-3)
    assert hi == pytest.approx(1.0, abs=1e-3)


# ------------------------------------------------------------- epi-sum


def test_epi_sum_against_sum_conjugate():
    """conjugate(h1 + h2) equals epi_sum(conjugate h1, conjugate h2)."""
    h1 = lambda p: np.sqrt(1.0 + p * p)
    h2 = lambda p: 0.5 * np.abs(p) + 0.1
    # window conjugates are finite past the certifiable slopes, so each
    # factor is restricted to its own trust interval first
    f1 = restrict(grid_conjugate(_on_grid(h1), V_GRID), *fl.slope_range(_on_grid(h1)))
    f2 = restrict(grid_conjugate(_on_grid(h2), V_GRID), *fl.slope_range(_on_grid(h2)))
    lhs = grid_conjugate(_on_grid(lambda p: h1(p) + h2(p)), V_GRID)
    rhs = fl.epi_sum(f1, f2)
    assert float(rhs(np.array([0.0]))[0]) == pytest.approx(EPISUM_SUM_AT_ZERO, abs=1e-9)
    vs = V_GRID.nodes()
    trust = np.abs(vs) <= 1.4
    both = np.isfinite(lhs.values) & np.isfinite(rhs.values) & trust
    assert float(np.max(np.abs(lhs.values[both] - rhs.values[both]))) <= 2e-2


def test_epi_sum_identity_element():
    # indicator of {0} is the identity for epi-sum at grid nodes
    f = grid_conjugate(_on_grid(lambda p: 0.5 * p * p), V_GRID)
    ind = np.full(V_GRID.count, np.inf)
    ind[V_GRID.count // 2] = 0.0
    delta = fl.ConvexGridFunction(V_GRID, ind)
    out = fl.epi_sum(f, delta)
    fin = np.isfinite(f.values)
    assert np.allclose(out.values[fin], f.values[fin], atol=1e-12)


def test_epi_sum_interval_indicators():
    # [a,b] # [c,d] = [a+c, b+d] for indicator functions
    g = fl.UniformGrid(-2.0, 2.0, 401)
    nodes = g.nodes()

    def indicator(lo, hi):
        vals = np.where((nodes >= lo - 1e-12) & (nodes <= hi + 1e-12), 0.0, np.inf)
        return fl.ConvexGridFunction(g, vals)

    out = fl.epi_sum(indicator(-0.5, 0.25), indicator(-0.25, 0.5))
    nodes, _ = out.finite_slice()
    assert nodes[0] == pytest.approx(-0.75, abs=g.h + 1e-12)
    assert nodes[-1] == pytest.approx(0.75, abs=g.h + 1e-12)


def test_epi_sum_unbounded_summand_raises():
    f = grid_conjugate(_on_grid(lambda p: 0.5 * p * p), V_GRID)
    slope = fl.ConvexGridFunction(V_GRID, -3.0 * V_GRID.nodes())
    with pytest.raises(UnboundedSummand):
        fl.epi_sum(f, slope)


def test_epi_sum_blocks_give_the_one_table_minimum():
    # criterion 3's case: ex_2_2 at (0.5, 0) plus 0.5|p| + 0.1, each
    # conjugate restricted to its trust interval
    spec = zoo.builtin("ex_2_2")
    h1 = _on_grid(lambda p: np.asarray(spec.eval(0.5, 0.0, p), dtype=float))
    h2 = _on_grid(lambda p: 0.5 * np.abs(p) + 0.1)
    h12 = fl.ConvexGridFunction(P_GRID, h1.values + h2.values)
    width = max(abs(s) for s in fl.slope_range(h12)) + 0.5
    v_grid = fl.UniformGrid(-width, width, 601)
    f1 = restrict(grid_conjugate(h1, v_grid), *fl.slope_range(h1))
    f2 = restrict(grid_conjugate(h2, v_grid), *fl.slope_range(h2))
    u, fu = f1.finite_slice()
    assert len(v_grid.nodes()) * len(u) > 4 * fl._EPI_BLOCK
    table = fu[None, :] + f2(v_grid.nodes()[:, None] - u[None, :])
    got = fl.epi_sum(f1, f2).values
    assert np.array_equal(got.view(np.uint64), np.min(table, axis=1).view(np.uint64))


@st.composite
def _rising_points(draw):
    """Strictly rising integer x and a piecewise-linear y with integer
    slopes (exact collinear runs, any order of slopes), optionally with
    relative noise at the rounding level."""
    n = draw(st.integers(3, 80))
    gaps = np.array(draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1)))
    slopes = np.array(draw(st.lists(st.integers(-6, 6), min_size=n - 1, max_size=n - 1)))
    x = np.concatenate([[0.0], np.cumsum(gaps)]).astype(float)
    y = np.concatenate([[0.0], np.cumsum(gaps * slopes)]).astype(float)
    if draw(st.booleans()):
        noise = draw(st.lists(st.sampled_from([0.0, 3e-16, -3e-16, 1e-13, -1e-13]), min_size=n, max_size=n))
        y = y + np.array(noise) * (1.0 + np.abs(y))
    return x, y


def _eps_of(x, y, production):
    # production eps is the epigraph loops': 1e-12 max(1, scale^2)
    return 1e-12 * max(1.0, float(np.max(np.abs(np.concatenate([x, y])))) ** 2) if production else 0.0


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_rising_points(), st.booleans())
def test_lower_hull_is_a_strictly_convex_minorant(points, production):
    x, y = points
    eps = _eps_of(x, y, production)
    idx = fl._lower_hull(x, y, eps)
    assert idx[0] == 0 and idx[-1] == len(x) - 1 and np.all(np.diff(idx) > 0)
    # every turn of the hull exceeds eps, as in the sequential chain
    hx, hy = x[idx], y[idx]
    turns = (hx[1:-1] - hx[:-2]) * (hy[2:] - hy[:-2]) - (hy[1:-1] - hy[:-2]) * (hx[2:] - hx[:-2])
    assert np.all(turns > eps)
    # every input point lies on or above the hull; a point dropped at a
    # turn of at most eps sits at most eps / (chord width) below its chord
    scale = 1.0 + float(np.max(np.abs(y)))
    below = np.interp(x, hx, hy) - y
    assert float(np.max(below)) <= 1e-12 * scale + len(x) * eps


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_rising_points())
def test_lower_hull_matches_monotone_chain_on_exact_input(points):
    # exact integer data: the lower hull is unique, its slopes rise strictly
    # in exact arithmetic, and pruning finds the chain's vertices
    x, y = points
    y = np.round(y)  # without the noise
    idx = fl._lower_hull(x, y)
    assert np.array_equal(idx, monotone_chain_lower_hull(x, y))
    slopes = [Fraction(int(y[j]) - int(y[i]), int(x[j]) - int(x[i])) for i, j in zip(idx[:-1], idx[1:])]
    assert all(a < b for a, b in zip(slopes[:-1], slopes[1:]))
    for k in range(len(x)):
        j = int(np.searchsorted(x[idx], x[k]))
        if x[idx[j]] == x[k]:
            continue
        a, b = idx[j - 1], idx[j]
        chord = Fraction(int(y[a])) + Fraction(int(y[b]) - int(y[a]), int(x[b]) - int(x[a])) * (int(x[k]) - int(x[a]))
        assert Fraction(int(y[k])) >= chord


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_rising_points(), st.integers(0, 4), st.integers(0, 4))
def test_conjugate_values_of_piecewise_linear_samples(points, pad_lo, pad_hi):
    # the y of _rising_points on a uniform grid with +inf pads: collinear
    # runs with rounding noise, the case that sends slices to the pruning
    _, y = points
    values = np.concatenate([np.full(pad_lo, np.inf), y, np.full(pad_hi, np.inf)])
    fn = fl.ConvexGridFunction(fl.UniformGrid(-3.0, 2.0, len(values)), values)
    w = np.linspace(-40.0, 40.0, 161)
    want = brute_conjugate_values(fn.grid.nodes(), fn.values, w)
    _assert_close(fl.conjugate_values(fn, w), want, _term_scale(fn, w))


def test_lower_hull_of_a_deep_drop_finishes_with_the_chain(monkeypatch):
    # one very low end node behind a long convex run: each pruning pass
    # drops only the node next to it, so the pass cap hands the survivors
    # to the sequential chain
    ps = P_GRID.nodes()
    vals = 0.5 * ps * ps
    vals[-1] = -1e6
    chained = []
    real = fl._chain_lower_hull

    def counting(x, y, eps):
        chained.append(len(x))
        return real(x, y, eps)

    monkeypatch.setattr(fl, "_chain_lower_hull", counting)
    idx = fl._lower_hull(ps, vals)
    assert chained == [P_GRID.count - 32]
    assert np.array_equal(idx, monotone_chain_lower_hull(ps, vals))
    w = np.linspace(-3.0, 3.0, 601)
    want = brute_conjugate_values(ps, vals, w)
    _assert_close(fl.conjugate_values(fl.ConvexGridFunction(P_GRID, vals), w), want, np.abs(want))


def test_lower_hull_of_production_slices_skips_the_chain(monkeypatch):
    # the piecewise-linear zoo slices need the pruning but never its fallback
    def forbidden(x, y, eps):
        raise AssertionError("chain fallback reached")

    monkeypatch.setattr(fl, "_chain_lower_hull", forbidden)
    ps = P_GRID.nodes()
    for name, xs in (("ex_2_1", np.linspace(-2.0, 2.0, 9)), ("ex_2_6", (0.15, 1.0, 1.9))):
        spec = zoo.builtin(name)
        for x in xs:
            vals = np.asarray(spec.eval(0.5, x, ps), dtype=float)
            idx = fl._lower_hull(ps, vals)
            assert idx[0] == 0 and idx[-1] == len(ps) - 1
            assert np.all(vals >= np.interp(ps, ps[idx], vals[idx]) - 1e-12 * (1.0 + np.abs(vals)))


# ------------------------------------------------------------ epigraph


def test_epigraph_polygon_of_abs():
    g = fl.UniformGrid(-2.0, 2.0, 5)
    f = fl.ConvexGridFunction(g, np.array([np.inf, 1.0, 0.0, 1.0, np.inf]))
    E = fl.build_epigraph(f, 1.5)
    verts = {tuple(v) for v in E.vertices}
    assert (0.0, 0.0) in verts
    assert (1.0, 1.5) in verts and (-1.0, 1.5) in verts


def _epigraph_points(fn, cap):
    """Generating points of the truncated epigraph: the graph nodes at or
    below the cap and the two points where the graph meets the cap (an end
    node's column when the finite run stops below it)."""
    nodes, vals = fn.grid.nodes(), fn.values
    keep = np.nonzero(vals <= cap)[0]
    ends = []
    for i, j in ((keep[0], keep[0] - 1), (keep[-1], keep[-1] + 1)):
        if 0 <= j < len(vals) and np.isfinite(vals[j]):
            t = (cap - vals[j]) / (vals[i] - vals[j])
            ends.append([nodes[j] + t * (nodes[i] - nodes[j]), cap])
        else:
            ends.append([nodes[i], cap])
    return np.vstack([np.stack([nodes[keep], vals[keep]], axis=1), ends])


def _production_epigraph_cases():
    # both builders on the criterion-5 (t, x) set, plus ex_2_6 slices
    x_sets = {"ex_2_1": (-1.0, -0.5, 0.0, 0.5, 1.0), "ex_2_2": (-1.0, 0.0, 1.0)}
    for name, xs in x_sets.items():
        spec = zoo.builtin(name)
        for triple in (build("noncompact", spec), build("compact", spec)):
            for x in xs:
                yield triple, 0.5, x
    for x in (0.15, 1.0):
        yield build("noncompact", zoo.builtin("ex_2_6")), 0.5, x


def test_epigraph_polygons_match_general_hull_on_production_slices():
    for triple, t, x in _production_epigraph_cases():
        fn = triple._core.slice(t, x)
        lmin = fn.min_value()
        bodies = [(fl.build_epigraph(fn, lmin + 2.0**j), lmin + 2.0**j) for j in range(6)]
        if triple.control.kind == "unit_ball":
            lam = float(triple.source.lambda_bound.eval(t, x))
            bodies.append((fl.build_epigraph(fn, lam), lam))
        for epi, cap in bodies:
            want = numpy_row_convex_hull(_epigraph_points(fn, cap))
            got = epi.vertices
            # the same vertex count (no near-collinear vertex is kept), and
            # usually the same vertices bit for bit; the vertex scan of the
            # Hausdorff oracle runs only when they differ
            assert len(got) == len(want), (triple.control.kind, x, cap)
            if not np.array_equal(got, want):
                gap = brute_hausdorff(got, want)
                assert gap <= 1e-12 * body_scale(epi), (triple.control.kind, x, cap, gap)


def test_bounded_epigraph_truncates_at_lambda():
    g = fl.UniformGrid(-2.0, 2.0, 5)
    f = fl.ConvexGridFunction(g, np.array([np.inf, 1.0, 0.0, 1.0, np.inf]))
    B = fl.build_epigraph(f, 0.5)
    heights = B.vertices[:, 1]
    assert float(np.max(heights)) <= 0.5 + 1e-12
    assert (0.0, 0.0) in {tuple(v) for v in B.vertices}
    # a cap at the minimum leaves the argmin point; one below it, nothing
    assert fl.build_epigraph(f, 0.0).vertices.tolist() == [[0.0, 0.0]]
    with pytest.raises(CapTooLow):
        fl.build_epigraph(f, -1e-12)
