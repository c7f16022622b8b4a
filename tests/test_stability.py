import numpy as np
import pytest

from hamrep import stability, zoo
from hamrep.builder import GridPolicy, Window
from hamrep.errors import HypothesisViolation
from hamrep.sampling import SamplePlan
from hamrep.stability import (
    DEFAULT_INDICES,
    PerturbationFamily,
    epigraph_limit_check,
    family_names,
    named_family,
    representation_convergence,
)

PLAN = SamplePlan(seed=0)
COARSE = GridPolicy(p_count=801, v_count=151)


def test_family_registry_roundtrip():
    names = family_names()
    assert names == [
        "ex_2_2_cos",
        "ex_2_2_normalized",
        "ex_2_1_sinx",
        "ex_2_6_absx",
        "ex_2_2_zero",
        "ex_2_2_lambda",
    ]
    for name in names:
        assert named_family(name).name == name
    with pytest.raises(KeyError):
        named_family("ex_2_2_bogus")


def test_member_specs_carry_their_lambda_bound():
    fam = named_family("ex_2_2_lambda")
    for t, x in ((0.2, -0.7), (0.5, 0.0), (0.9, 0.35)):
        assert fam.spec_for(16).lambda_bound.eval(t, x) == abs(x) + 1.0 / 16
        assert fam.limit_spec().lambda_bound.eval(t, x) == abs(x)
    # without a per-index bound a member keeps the base's
    cos = named_family("ex_2_2_cos")
    assert cos.spec_for(4).lambda_bound is cos.base.lambda_bound


def test_spec_for_applies_perturbation_and_strips_oracles():
    fam = named_family("ex_2_2_cos")
    spec4 = fam.spec_for(4)
    assert spec4.name == "ex_2_2+i4"
    assert spec4.oracle_L is None and spec4.oracle_dom is None
    ps = np.array([-2.0, 0.0, 1.5])
    base = np.asarray(fam.base.eval(0.5, 0.3, ps))
    assert np.allclose(spec4.eval(0.5, 0.3, ps), base + 0.25 * np.cos(ps))
    limit = fam.limit_spec()
    assert limit.name == "ex_2_2+limit"
    assert limit.oracle_L is None
    assert np.allclose(limit.eval(0.5, 0.3, ps), base)


def test_validate_passes_on_registry_families():
    for name in family_names():
        report = named_family(name).validate(plan=PLAN)
        assert report.check == "family_convexity_probe"
        assert report.verdict == "pass"


def test_validate_flags_concave_perturbation():
    fam = PerturbationFamily(
        "broken", zoo.builtin("ex_2_2"), lambda i, t, x, p: -(1.0 / i) * np.asarray(p) ** 2
    )
    assert fam.validate(plan=PLAN).verdict == "fail"
    with pytest.raises(HypothesisViolation):
        representation_convergence(fam, grids=COARSE, plan=PLAN, n_slabs=1)


def test_convergence_refuses_to_judge_no_slab():
    # with no slab every row would read -inf and the bound a vacuous pass
    with pytest.raises(ValueError, match="without a slab"):
        representation_convergence(named_family("ex_2_2_zero"), grids=COARSE, plan=PLAN, n_slabs=0)


def test_zero_perturbation_is_exactly_zero():
    report = representation_convergence(
        named_family("ex_2_2_zero"), grids=COARSE, plan=PLAN, n_slabs=2
    )
    assert [r.i for r in report.rows] == list(DEFAULT_INDICES)
    for row in report.rows:
        assert row.sup_e_err == 0.0
        assert row.sup_f_err == 0.0
        assert row.sup_l_err == 0.0
        assert row.sup_hausdorff_EL == 0.0
        assert row.bound_margin <= 0.0
    assert report.decay_report().verdict == "pass"
    assert report.bound_report().verdict == "pass"


def test_decay_and_bound_ex_2_2_cos():
    report = representation_convergence(
        named_family("ex_2_2_cos"), grids=COARSE, plan=PLAN, n_slabs=2
    )
    rows = report.rows
    assert rows[0].sup_e_err > 0.0
    assert rows[-1].sup_e_err <= 0.3 * rows[0].sup_e_err
    decay = report.decay_report()
    assert decay.check == "stability_decay[ex_2_2_cos]"
    assert decay.verdict == "pass"
    bound = report.bound_report()
    assert bound.check == "steiner_composition_bound[ex_2_2_cos]"
    assert bound.verdict == "pass"


def test_compact_route_lambda_family():
    report = representation_convergence(
        named_family("ex_2_2_lambda"), kind="compact", grids=COARSE, plan=PLAN, n_slabs=2
    )
    rows = report.rows
    assert report.kind == "compact"
    assert rows[0].sup_e_err > 0.0
    assert rows[-1].sup_e_err <= 0.3 * rows[0].sup_e_err
    assert report.bound_report().verdict == "pass"


def test_fixed_t_pins_time_slice():
    report = representation_convergence(
        named_family("ex_2_6_absx"), fixed_t=0.5, grids=COARSE, plan=PLAN
    )
    assert all(np.isfinite(r.sup_e_err) for r in report.rows)
    assert report.rows[-1].sup_e_err <= 0.3 * report.rows[0].sup_e_err


def test_epigraph_limit_check_ex_2_2_cos():
    report = epigraph_limit_check(named_family("ex_2_2_cos"), grids=COARSE, plan=PLAN)
    assert report.check == "epigraph_limit[ex_2_2_cos]"
    assert report.verdict == "pass"
    errs = [w["worst_distance_err"] for w in report.witnesses]
    assert errs[-1] <= errs[0]
