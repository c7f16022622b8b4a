import numpy as np
import pytest

from hamrep.sampling import SamplePlan


def test_rng_streams_are_salted_and_reproducible():
    plan = SamplePlan(seed=11)
    a = plan.rng(0).uniform(size=5)
    b = plan.rng(0).uniform(size=5)
    c = plan.rng(1).uniform(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    other = SamplePlan(seed=12).rng(0).uniform(size=5)
    assert not np.array_equal(a, other)


def test_triples_respect_window_and_count():
    plan = SamplePlan(seed=3, n_triples=40)
    pts = plan.triples((0.25, 0.75), 2.0)
    assert pts.shape == (40, 3)
    assert np.all((pts[:, 0] >= 0.25) & (pts[:, 0] <= 0.75))
    assert np.all(np.abs(pts[:, 1:]) <= 2.0)
    assert np.array_equal(pts, SamplePlan(seed=3, n_triples=40).triples((0.25, 0.75), 2.0))


def test_p_values_and_unit_fractions():
    plan = SamplePlan(seed=5, n_p=17, n_v=9)
    ps = plan.p_values(3.0)
    assert ps.shape == (17,)
    assert np.all(np.abs(ps) <= 3.0)
    fr = plan.unit_fractions()
    assert fr.shape == (9,)
    assert np.all((fr > 0.0) & (fr < 1.0))
    assert np.all(np.diff(fr) > 0)

