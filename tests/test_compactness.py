import dataclasses
import warnings

import numpy as np
import pytest

from _oracles import convexified_plan, convexified_points, user_triple_point
from hamrep import compactness, zoo
from hamrep.builder import ControlSet, RepresentationTriple, induced_H
from hamrep.compactness import (
    VERDICT_BOUNDED,
    VERDICT_VIOLATED,
    convexify,
    detect_blc_failure,
    extract_lambda,
    lemma41_check,
    simplex_weights,
)
from hamrep.errors import ConfigError, NoncompactControl
from hamrep.sampling import SamplePlan

PLAN = SamplePlan(seed=0)


def test_simplex_weights_partition():
    w = simplex_weights()
    assert w.shape == (9, 2)
    assert np.allclose(w.sum(axis=1), 1.0)
    assert np.all(w >= 0.0)
    assert np.allclose(w[0], [0.0, 1.0]) and np.allclose(w[-1], [1.0, 0.0])


def test_convexify_diagonal_reproduces_base():
    base = zoo.hat_rep_ex_2_1(n_side=9)
    ct = convexify(base)
    a = np.array([0.5, -0.75])
    packed = np.concatenate([a, a, [1.0, 0.0]])
    got, want = ct.e_eval(0.3, 0.4, packed), base.e_eval(0.3, 0.4, a)
    assert got[0] == pytest.approx(want[0])
    assert got[1] == pytest.approx(want[1])


def test_convexify_mixes_atoms():
    base = zoo.circle_rep_ex_2_2()
    ct = convexify(base)
    top = np.array([0.0, 1.0])
    right = np.array([1.0, 0.0])
    packed = np.concatenate([top, right, [0.5, 0.5]])
    x = 0.4
    e = ct.e_eval(0.2, x, packed)
    assert e[0] == pytest.approx(0.5)
    assert e[1] == pytest.approx(0.5 + abs(x))


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("hat_rep_ex_2_1", {}),
        ("circle_rep_ex_2_2", {}),
        ("family_p_abs", {}),
        ("family_p_abs", {"h": 0.3, "k": 0.7}),
    ],
)
def test_convexified_e_table_matches_per_control_oracle(name, kwargs):
    base = getattr(zoo, name)(**kwargs)
    ct = convexify(base)
    q = base.control.dim
    for t, x in ((0.2, -0.7), (0.5, 0.0), (0.9, 0.35)):
        A, F, Lv = ct.e_table(t, x)
        assert np.array_equal(A, convexified_plan(base.default_samples(t, x), simplex_weights()))
        want = convexified_points(lambda a: user_triple_point(name, x, a, **kwargs), A, q)
        assert np.array_equal(F, want[:, 0])
        assert np.array_equal(Lv, want[:, 1])


@pytest.mark.parametrize("name", ["hat_rep_ex_2_1", "constructed"])
def test_convexified_plan_is_one_read_only_array(name, ex22_compact_fast):
    # built once from the base plan at (0, 0) and served at every slab
    base = ex22_compact_fast if name == "constructed" else zoo.hat_rep_ex_2_1()
    ct = convexify(base)
    plan = ct.control.points
    assert not plan.flags.writeable
    assert np.array_equal(plan, convexified_plan(base.default_samples(0.0, 0.0), simplex_weights()))
    for t, x in ((0.2, -0.7), (0.9, 0.35)):
        assert ct.e_table(t, x)[0] is plan


def test_convexified_constructed_triple_matches_per_control_oracle(ex22_compact_fast):
    base = ex22_compact_fast
    ct = convexify(base)
    t, x = 0.4, -0.3
    packed = ct.control.points[::97]
    F, Lv = ct.e_eval(t, x, packed).T
    want = convexified_points(lambda a: base.e_eval(t, x, a), packed, 2)
    assert np.array_equal(F, want[:, 0])
    assert np.array_equal(Lv, want[:, 1])


@pytest.mark.parametrize("name", ["hat_rep_ex_2_1", "circle_rep_ex_2_2", "family_p_abs"])
def test_single_control_e_eval_equals_stacked_row(name):
    triples = [getattr(zoo, name)()]
    triples.append(convexify(triples[0]))
    for triple in triples:
        for t, x in ((0.3, -0.6), (0.7, 0.45)):
            A = triple.control_samples(t, x) if triple.control_samples else triple.control.samples()
            E = triple.e_eval(t, x, A)
            assert E.shape == (len(A), 2)
            for i in range(0, len(A), max(1, len(A) // 40)):
                single = triple.e_eval(t, x, A[i])
                assert single.shape == (2,)
                assert np.array_equal(single, E[i])


def test_convexified_e_eval_rejects_wrong_packed_width():
    with pytest.raises(ConfigError):
        convexify(zoo.family_p_abs()).e_eval(0.5, 0.0, np.zeros((3, 5)))


def test_convexify_rejects_full_space(ex22_noncompact_fast):
    with pytest.raises(NoncompactControl):
        convexify(ex22_noncompact_fast)


def test_induced_H_circle_matches_source():
    triple = zoo.circle_rep_ex_2_2()
    spec = triple.source
    ps = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    for t, x in ((0.25, -0.8), (0.75, 0.0), (0.5, 1.0)):
        got = induced_H(triple, t, x, ps)
        want = np.asarray(spec.eval(t, x, ps), dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-2
        # inner parametrization: the induced sup never exceeds H
        assert np.max(got - want) <= 1e-12


def test_induced_H_hat_exact_on_grid():
    triple = zoo.hat_rep_ex_2_1()
    spec = triple.source
    ps = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
        got = induced_H(triple, 0.5, x, ps)
        want = np.asarray(spec.eval(0.5, x, ps), dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("name", ["hat_rep_ex_2_1", "circle_rep_ex_2_2", "family_p_abs"])
def test_lemma41_passes_listed_triples(name):
    triple = getattr(zoo, name)()
    report = lemma41_check(triple, plan=PLAN)
    assert report.check == "lemma41_epigraph_bound"
    assert report.verdict == "pass"


def test_lemma41_fails_below_epigraph():
    # claims l = -0.3 while L(f(a)) = 0 on the indicator Lagrangian
    control = ControlSet("interval", 1, lo=-1.0, hi=1.0)
    bad = RepresentationTriple(
        control=control,
        e_eval=lambda t, x, a: np.stack([a[..., 0], np.full(a.shape[:-1], -0.3)], axis=-1),
        provenance="user",
        source=zoo.builtin("abs_p"),
    )
    report = lemma41_check(bad, plan=PLAN)
    assert report.verdict == "fail"
    assert report.worst_margin == pytest.approx(0.3, abs=1e-9)


def test_lemma41_rejects_full_space(ex22_noncompact_fast):
    with pytest.raises(NoncompactControl):
        lemma41_check(ex22_noncompact_fast, plan=PLAN)


def test_extract_lambda_hat_certifies_constant_one():
    lam = extract_lambda(convexify(zoo.hat_rep_ex_2_1()), plan=PLAN)
    assert lam.certification is not None
    assert lam.certification.verdict == "pass"
    for t, x in ((0.2, -1.0), (0.5, 0.0), (0.8, 1.0)):
        assert lam.eval(t, x) == pytest.approx(1.0, abs=2e-2)


def test_extract_lambda_circle_certifies_one_plus_abs_x():
    lam = extract_lambda(convexify(zoo.circle_rep_ex_2_2()), plan=PLAN)
    assert lam.certification is not None
    assert lam.certification.verdict == "pass"
    for t, x in ((0.2, -1.0), (0.5, 0.0), (0.8, 1.0)):
        assert lam.eval(t, x) == pytest.approx(1.0 + abs(x), abs=2e-2)


@pytest.mark.parametrize(
    "name, want",
    [
        ("ex_2_2", VERDICT_BOUNDED),
        ("ex_2_3", VERDICT_VIOLATED),
        ("ex_2_4", VERDICT_VIOLATED),
    ],
)
def test_detect_blc_failure_verdicts(name, want):
    report = detect_blc_failure(zoo.builtin(name), plan=PLAN)
    assert report.check == "blc_failure_probe"
    assert report.verdict == want


def test_detect_blc_failure_candidates_are_final_margin_sups():
    report = detect_blc_failure(zoo.builtin("ex_2_2"), plan=PLAN)
    candidates = report.witnesses[-1]["candidate_lambda"]
    assert len(candidates) == 8
    assert max(c["sup_L"] for c in candidates) == report.worst_margin == report.witnesses[-2]["sup"]


def test_detect_blc_failure_indicator_lagrangian():
    report = detect_blc_failure(zoo.builtin("abs_p"), plan=PLAN)
    assert report.verdict == VERDICT_BOUNDED
    assert report.worst_margin == pytest.approx(0.0, abs=1e-12)
    assert "candidate_lambda" in report.witnesses[-1]


def test_detect_blc_failure_fails_when_no_slab_is_judged():
    # dom L(t, x, .) of ex_2_5 is the whole line: no interior ladder to climb
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = detect_blc_failure(zoo.builtin("ex_2_5"), plan=PLAN)
    assert report.verdict == "fail" and not report.passed
    assert report.witnesses == [
        {"note": "no slab judged at margin 0.1: every sampled domain is unbounded or too narrow"}
    ]


def test_extract_lambda_fails_when_no_slab_is_judged():
    # the family_p_abs triple over ex_2_5, whose dom L is the whole line:
    # no slab has a bounded domain to sample, so nothing is certified
    triple = dataclasses.replace(zoo.family_p_abs(), source=zoo.builtin("ex_2_5"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cert = extract_lambda(convexify(triple), plan=PLAN).certification
    assert cert.verdict == "fail" and not cert.passed and cert.worst_margin == -np.inf
    assert cert.witnesses == [{"note": "no slab judged: every sampled domain is unbounded or holds no finite L"}]
