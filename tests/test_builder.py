import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import per_pair_lipschitz, plan_induced_H, point_polygon_distance, quadrature_disc_steiner
from conftest import FAST_APLAN, FAST_PLAN, FAST_POLICY
from hamrep import zoo
from hamrep.builder import (
    APlan,
    ControlSet,
    RepresentationTriple,
    Window,
    build,
    image_of_controls,
    induced_H,
    sandwich_check,
    scaling_bound,
    verify_triple,
)
from hamrep.compactness import convexify
from hamrep.errors import BLCViolation, ConfigError, MissingC
from hamrep.zoo import LambdaBound, ModulusData

T0 = 0.5
P_SET = (-3.0, -1.0, 0.0, 1.0, 3.0)


def test_control_set_sample_layouts():
    plan = APlan(n_box=5, n_radii=3, n_angles=8)
    box = ControlSet("full_space", 2).samples(plan)
    assert box.shape == (25, 2)
    assert np.array_equal(np.unique(box), np.linspace(-3.0, 3.0, 5))
    ball = ControlSet("unit_ball", 2).samples(plan)
    assert ball.shape == (25, 2)
    assert np.allclose(ball[0], 0.0)
    assert np.max(np.linalg.norm(ball, axis=1)) <= 1.0 + 1e-12
    seg = ControlSet("interval", 1, lo=-1.0, hi=3.0).samples(plan)
    assert seg.shape == (41, 1)
    assert (seg[0, 0], seg[-1, 0]) == (-1.0, 3.0)
    pts = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert np.array_equal(ControlSet("finite", 2, points=pts).samples(plan), pts)
    with pytest.raises(ConfigError):
        ControlSet("finite", 2).samples(plan)
    with pytest.raises(ConfigError):
        ControlSet("simplex", 2).samples(plan)


def _reconstruction_errors(triple, xs):
    spec = triple.source
    errs, sound = [], []
    for x in xs:
        want = np.asarray(spec.eval(T0, x, np.array(P_SET)), dtype=float)
        got = induced_H(triple, T0, x, P_SET)
        errs.append(float(np.max(np.abs(got - want))))
        sound.append(float(np.max(got - want)))
    return max(errs), max(sound)


def test_noncompact_reconstruction_ex_2_2(ex22_noncompact_fast):
    err, sound = _reconstruction_errors(ex22_noncompact_fast, (-1.0, 0.0, 1.0))
    assert err <= 5e-2
    assert sound <= 2e-2


def test_noncompact_reconstruction_ex_2_1(ex21_noncompact_fast):
    err, sound = _reconstruction_errors(ex21_noncompact_fast, (-1.0, -0.5, 0.0, 0.5, 1.0))
    assert err <= 5e-2
    assert sound <= 2e-2


def test_compact_reconstruction_ex_2_2(ex22_compact_fast):
    err, sound = _reconstruction_errors(ex22_compact_fast, (-1.0, 0.0, 1.0))
    assert err <= 5e-2
    assert sound <= 2e-2


def test_reconstruction_monotone_in_sample_plan(ex22_noncompact_fast):
    triple = ex22_noncompact_fast
    subset = triple.control.samples(APlan(n_box=4))
    small = plan_induced_H(triple, T0, 0.5, P_SET, subset)
    full = induced_H(triple, T0, 0.5, P_SET)
    assert np.all(small <= full + 1e-12)


def test_e_eval_fixes_epigraph_points(ex22_noncompact_fast):
    triple = ex22_noncompact_fast
    core = triple._core
    lift = core.lift_points(T0, 0.5)
    a = lift[len(lift) // 3]
    out = np.asarray(triple.e_eval(T0, 0.5, a), dtype=float)
    assert np.array_equal(out, a)


@pytest.mark.parametrize(
    "name, kind, x",
    [("ex_2_2", "noncompact", 0.5), ("ex_2_2", "compact", -1.0), ("ex_2_1", "noncompact", 0.0)],
)
def test_e_table_selections_match_quadrature_oracle(name, kind, x):
    # production grids; for ex_2_1 at x = 0, dom L = {0} and every epigraph
    # on the cap ladder is a 2-vertex segment
    triple = build(kind, zoo.builtin(name), plan=APlan(n_box=9, n_radii=4, n_angles=12))
    core = triple._core
    A, F, L = triple.e_table(T0, x)
    Z = A * triple.scaling(T0, x)
    got = np.stack([F, L], axis=1)
    moved = np.nonzero(np.any(got != Z, axis=1))[0]
    assert len(moved) >= 20
    # re-derive each moved row's body as e_points routes it: the distance
    # to the preliminary epigraph sets the cap of the body it is projected on
    lmin = core.slice(T0, x).min_value()
    worst = 0.0
    for i in moved:
        zcap = max(abs(Z[i, 1]), lmin)
        d = point_polygon_distance(Z[i], core.epigraph(T0, x, zcap + 10.0).vertices)
        verts = core.epigraph(T0, x, zcap + 6.0 * d + 1.0).vertices
        if name == "ex_2_1":
            assert len(verts) == 2
        r = 2.0 * point_polygon_distance(Z[i], verts)
        want = quadrature_disc_steiner(verts, Z[i], r)
        worst = max(worst, float(np.linalg.norm(got[i] - want)))
    assert worst <= 5e-4


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_e_table_matches_single_control_e_eval(ex22_noncompact_fast, ex22_compact_fast, seed):
    rng = np.random.default_rng(seed)
    x = float(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0]))
    for triple in (ex22_noncompact_fast, ex22_compact_fast):
        A, F, L = triple.e_table(T0, x)
        # half the rows from the projected controls, half from the rest
        moved = np.any(np.stack([F, L], axis=1) != triple.scaling(T0, x) * A, axis=1)
        rows = [rng.choice(np.nonzero(mask)[0], 4) for mask in (moved, ~moved)]
        for i in np.concatenate(rows):
            single = np.asarray(triple.e_eval(T0, x, A[i]))
            assert single.shape == (2,)
            assert single[0] == F[i] and single[1] == L[i]


@pytest.mark.parametrize("name", ["ex_2_1", "ex_2_2", "ex_2_6"])
def test_compact_selection_is_the_noncompact_one_at_scaled_controls(name):
    # the one construction: compact e(t, x, a) is noncompact e(t, x, M(t, x) a)
    spec = zoo.builtin(name)
    noncompact, compact = (build(kind, spec, grids=FAST_POLICY, plan=FAST_APLAN) for kind in ("noncompact", "compact"))
    rng = np.random.default_rng(11)
    A = rng.normal(size=(20, 2))
    A *= rng.uniform(0.0, 1.0, (20, 1)) / np.linalg.norm(A, axis=1, keepdims=True)
    ts, xs = rng.uniform(0.0, 1.0, 20), rng.uniform(-1.0, 1.0, 20)
    M = np.array([compact.scaling(t, x) for t, x in zip(ts.tolist(), xs.tolist())])
    assert np.array_equal(compact.e_eval(ts, xs, A), noncompact.e_eval(ts, xs, M[:, None] * A))
    # the compact default plan, its lift points included
    A = compact.default_samples(T0, 0.3)
    assert np.array_equal(compact.e_eval(T0, 0.3, A), noncompact.e_eval(T0, 0.3, compact.scaling(T0, 0.3) * A))


def test_build_rejects_an_unknown_kind():
    with pytest.raises(ConfigError, match="unknown construction kind 'both'"):
        build("both", zoo.builtin("ex_2_2"), grids=FAST_POLICY)


def test_e_eval_validates_controls(ex22_noncompact_fast, ex22_compact_fast):
    with pytest.raises(ConfigError):
        ex22_noncompact_fast.e_eval(T0, 0.0, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ConfigError):
        ex22_compact_fast.e_eval(T0, 0.0, np.array([1.2, 0.9]))
    with pytest.raises(ConfigError):
        zoo.hat_rep_ex_2_1().e_eval(T0, 0.0, np.array([0.1, 0.2, 0.3]))


def test_noncompact_e_eval_rejects_a_non_finite_control(ex22_noncompact_fast):
    # (inf, 0) once read as a NaN point with RuntimeWarnings
    with pytest.raises(ConfigError, match=r"row 1 is not finite: \[inf, 0\.0\]"):
        ex22_noncompact_fast.e_eval(T0, 0.0, np.array([[0.5, 0.0], [np.inf, 0.0], [0.5, np.nan]]))
    with pytest.raises(ConfigError, match=r"row 0 is not finite"):
        ex22_noncompact_fast.e_eval(T0, 0.0, np.array([0.5, -np.inf]))


def test_compact_e_eval_rejects_a_non_finite_control(ex22_compact_fast):
    # a NaN passes the unit-ball test, and [nan, 0] once came back as itself
    with pytest.raises(ConfigError, match=r"row 0 is not finite: \[nan, 0\.0\]"):
        ex22_compact_fast.e_eval(T0, 0.0, np.array([[np.nan, 0.0]]))
    with pytest.raises(ConfigError, match=r"row 1 is not finite"):
        ex22_compact_fast.e_eval([0.5, 0.5], [0.0, 0.1], np.array([[0.1, 0.2], [0.0, np.nan]]))


def test_e_table_rejects_e_eval_breaking_the_shape_contract():
    # one point for the whole stack instead of one per control
    bad = RepresentationTriple(
        control=ControlSet("interval", 1),
        e_eval=lambda t, x, a: np.array([0.0, 0.0]),
        provenance="user",
        source=zoo.builtin("abs_p"),
    )
    with pytest.raises(ConfigError, match=r"\(N, 2\)"):
        bad.e_table(T0, 0.0)


@pytest.mark.parametrize("x", [-1.0, 0.0, 1.0])
def test_image_matches_domain_ex_2_2(ex22_noncompact_fast, x):
    ref = ex22_noncompact_fast.slices.domain(T0, x)
    assert ref.lo == -1.0 and ref.hi == 1.0
    assert image_of_controls(ex22_noncompact_fast, T0, x).gap <= 5e-2


def test_image_degenerate_domain_ex_2_1(ex21_noncompact_fast):
    report = image_of_controls(ex21_noncompact_fast, T0, 0.0)
    assert report.gap <= 5e-2
    assert abs(report.domain.lo) <= 1e-6 and abs(report.domain.hi) <= 1e-6


def test_verify_triple_noncompact(ex22_noncompact_fast):
    reports = verify_triple(ex22_noncompact_fast, Window(), plan=FAST_PLAN, n_pairs=12)
    assert [r.check for r in reports] == [
        "triple_l_lower_bound",
        "triple_f_growth",
        "triple_lipschitz",
        "triple_membership",
        "triple_image_gap",
    ]
    assert all(r.verdict == "pass" for r in reports)


def test_verify_triple_skips_f_growth_without_c():
    # ex_2_5 carries no c(t), so the growth bound (H4) cannot be judged
    triple = build("noncompact", zoo.builtin("ex_2_5"), grids=FAST_POLICY, plan=FAST_APLAN)
    reports = verify_triple(triple, Window(), plan=FAST_PLAN, n_pairs=2)
    growth = next(r for r in reports if r.check == "triple_f_growth")
    assert growth.verdict == "skipped" and growth.worst_margin == 0.0 and growth.passed
    assert growth.witnesses == [{"note": "missing (H4): no c(t) bound"}]


def test_verify_triple_compact(ex22_compact_fast):
    reports = verify_triple(ex22_compact_fast, Window(), plan=FAST_PLAN, n_pairs=12)
    assert all(r.verdict == "pass" for r in reports)


def test_verify_triple_fails_lipschitz_on_no_pair(ex22_noncompact_fast):
    reports = {r.check: r for r in verify_triple(ex22_noncompact_fast, Window(), plan=FAST_PLAN, n_pairs=0)}
    lip = reports.pop("triple_lipschitz")
    assert lip.verdict == "fail" and lip.worst_margin == -np.inf
    assert lip.witnesses == [{"note": "no pair judged: n_pairs is 0"}]
    assert all(r.passed for r in reports.values())


def test_verify_triple_fails_lipschitz_on_a_nan_modulus():
    # k_R = NaN makes every Lipschitz bound NaN, which `nan > worst` used to drop
    base = zoo.builtin("ex_2_2")
    spec = dataclasses.replace(base, modulus=dataclasses.replace(base.modulus, k_R=lambda R, t: float("nan")))
    triple = build("noncompact", spec, grids=FAST_POLICY, plan=FAST_APLAN)
    reports = {r.check: r for r in verify_triple(triple, Window(), plan=FAST_PLAN, n_pairs=4)}
    lip = reports["triple_lipschitz"]
    assert lip.verdict == "fail" and np.isnan(lip.worst_margin)
    assert len(lip.witnesses) == 1 and lip.witnesses[0]["note"] == "margin is NaN"


def _per_row_triples(noncompact, compact):
    """One triple of every kind: both builders, the zoo's formula triples
    (family_p_abs with callable h and k) and the convexification of a
    formula triple and of a constructed compact triple."""
    family = zoo.family_p_abs(h=lambda x: 0.5 * x * x, k=lambda x: np.abs(x) + 0.25)
    return (
        noncompact,
        compact,
        zoo.hat_rep_ex_2_1(),
        zoo.circle_rep_ex_2_2(),
        family,
        convexify(family),
        convexify(compact),
    )


def _draw_controls(triple, rng, n):
    control = triple.control
    if control.kind == "unit_ball":
        A = rng.normal(size=(n, 2))
        return A * rng.uniform(0.0, 1.0, (n, 1)) / np.linalg.norm(A, axis=1, keepdims=True)
    if control.kind == "full_space":
        return rng.uniform(-3.0, 3.0, (n, 2))
    if control.kind == "interval":
        return rng.uniform(control.lo, control.hi, (n, 1))
    return control.points[rng.integers(0, len(control.points), n)]


@settings(max_examples=15, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_per_row_e_eval_equals_single_control_calls(ex22_noncompact_fast, ex22_compact_fast, seed):
    # rows at many (t, x), some repeated so that slabs share a batch, and a
    # scalar t serving rows at their own x, against one e_eval call per control
    rng = np.random.default_rng(seed)
    n = 24
    ts = rng.choice([0.2, 0.5, rng.uniform(0.0, 1.0)], n)
    xs = rng.choice([-1.0, 0.0, 0.3, rng.uniform(-1.0, 1.0)], n)
    for triple in _per_row_triples(ex22_noncompact_fast, ex22_compact_fast):
        A = _draw_controls(triple, rng, n)
        got = triple.e_eval(ts, xs, A)
        want = np.array([triple.e_eval(t, x, a) for t, x, a in zip(ts.tolist(), xs.tolist(), A)])
        assert got.shape == (n, 2) and np.array_equal(got, want), triple.provenance
        one_t = triple.e_eval(0.5, xs, A)
        want = np.array([triple.e_eval(0.5, x, a) for x, a in zip(xs.tolist(), A)])
        assert np.array_equal(one_t, want), triple.provenance


def test_per_row_e_eval_validates_controls(ex22_compact_fast):
    with pytest.raises(ConfigError):
        ex22_compact_fast.e_eval([0.5, 0.5], [0.0, 0.1], np.array([[0.1, 0.2], [1.2, 0.9]]))


def _lipschitz_cases():
    near_zero = Window(x_range=(-0.15, 0.15))
    return [
        ("ex_2_2", "noncompact", Window()),
        ("ex_2_2", "compact", Window()),
        # ex_2_1 near x = 0: two-vertex slices mixed with small polygons
        ("ex_2_1", "noncompact", near_zero),
        ("ex_2_1", "compact", near_zero),
        # a formula triple passes per-row (t, x) through its numpy formulas
        ("hat_rep_ex_2_1", None, Window()),
    ]


# each constructed case's id names its construction, build_<kind>
@pytest.mark.parametrize(
    "name, kind, window", _lipschitz_cases(), ids=lambda v: f"build_{v}" if v in ("noncompact", "compact") else None
)
def test_verify_triple_lipschitz_matches_per_pair_oracle(name, kind, window):
    def fresh():
        if kind is None:
            return getattr(zoo, name)()
        return build(kind, zoo.builtin(name), grids=FAST_POLICY, plan=FAST_APLAN)

    reports = {r.check: r for r in verify_triple(fresh(), window, plan=FAST_PLAN, n_pairs=24)}
    got = reports["triple_lipschitz"]
    worst, verdict, wit = per_pair_lipschitz(fresh(), window, FAST_PLAN, n_pairs=24)
    assert np.float64(got.worst_margin).tobytes() == np.float64(worst).tobytes()
    assert (got.verdict, got.witnesses) == (verdict, wit)


def test_verify_triple_batches_each_side_of_the_pairs(monkeypatch):
    # one per-row e_eval call per side; every other call is one of
    # e_table's control stacks at one (t, x)
    triple = build("compact", zoo.builtin("ex_2_2"), grids=FAST_POLICY, plan=FAST_APLAN)
    rows, singles = [], []
    e_eval = triple.e_eval

    def counted(ts, xs, A):
        if np.ndim(ts) or np.ndim(xs):
            rows.append(len(A))
        singles.append(np.ndim(A) < 2)
        return e_eval(ts, xs, A)

    monkeypatch.setattr(triple, "e_eval", counted)
    verify_triple(triple, Window(), plan=FAST_PLAN, n_pairs=12)
    assert rows == [12, 12]
    assert singles and not any(singles)


@pytest.mark.parametrize("x", [-1.0, 0.0, 1.0])
def test_sandwich_ex_2_2(ex22_compact_fast, x):
    report = sandwich_check(ex22_compact_fast, T0, x)
    assert report.verdict == "pass"
    assert report.worst_margin <= 5e-2


def test_sandwich_degenerate_slice_ex_2_1():
    # dom L(t, 0) = {0}: the e-sample hull collapses to a vertical segment
    triple = build("compact", zoo.builtin("ex_2_1"), grids=FAST_POLICY, plan=FAST_APLAN)
    report = sandwich_check(triple, T0, 0.0)
    assert report.verdict == "pass"


def test_sandwich_rejects_noncompact(ex22_noncompact_fast):
    with pytest.raises(ConfigError):
        sandwich_check(ex22_noncompact_fast, T0, 0.0)


def test_scaling_bound_formula():
    spec = zoo.builtin("ex_2_2")
    got = scaling_bound(spec, 0.5, 0.5)
    # |lambda| + |H(t,x,0)| + c(t)(1+|x|) + 1 = 0.5 + 0.5 + 1.5 + 1, lambda = |x|
    assert got == pytest.approx(3.5)


def test_builders_enforce_flags():
    # the compact builder needs H4 (a c(t)) and BLC (a lambda): ex_2_5 lacks
    # c, ex_2_3 lambda
    with pytest.raises(MissingC):
        build("compact", zoo.builtin("ex_2_5"), grids=FAST_POLICY)
    with pytest.raises(ConfigError, match="no lambda bound"):
        build("compact", zoo.builtin("ex_2_3"), grids=FAST_POLICY)


def test_compact_requires_growth_bound():
    spec = zoo.builtin("ex_2_2")
    mod = spec.modulus
    no_c = dataclasses.replace(spec, modulus=ModulusData(k_R=mod.k_R, w_R=mod.w_R, c=None))
    with pytest.raises(MissingC):
        build("compact", no_c, grids=FAST_POLICY)


def test_compact_requires_lambda():
    with pytest.raises(ConfigError):
        build("compact", zoo.builtin("ex_2_3"), grids=FAST_POLICY)


def test_compact_raises_on_violated_lambda():
    spec = dataclasses.replace(zoo.builtin("ex_2_2"), lambda_bound=LambdaBound(eval=lambda t, x: -5.0))
    triple = build("compact", spec, grids=FAST_POLICY, plan=FAST_APLAN)
    with pytest.raises(BLCViolation):
        triple.e_table(T0, 0.5)


def test_noncompact_without_c_derives_v_window():
    # ex_2_5 has no c(t): the v-window comes from the H slice's edge slopes
    spec = zoo.builtin("ex_2_5")
    triple = build("noncompact", spec, plan=FAST_APLAN)
    want = float(np.asarray(spec.eval(T0, 0.7, np.array([1.0])))[0])
    assert induced_H(triple, T0, 0.7, [1.0])[0] == pytest.approx(want, abs=5e-2)
    # H = p^2 / 3 - 0.7 has edge slopes near +-50 / 1.5 on the [-50, 50] window
    grid = triple._core.slice(T0, 0.7).grid
    assert grid.hi == -grid.lo == pytest.approx(50.0 / 1.5 + 1.0, abs=1e-2)
