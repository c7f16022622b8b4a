import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    EX_2_3_WINDOW_VALUE,
    brute_conjugate,
    grid_ternary_window_min,
    inline_h_slice,
    kink_window_min,
    per_set_check_LLC,
    scaled_modulus,
)
from hamrep import convex_geom as cg
from hamrep import fenchel as fl
from hamrep import zoo
from hamrep.errors import UnknownName
from hamrep.exprs import compile_hamiltonian
from hamrep.sampling import SamplePlan

SMALL_PLAN = SamplePlan(seed=0, n_triples=16)


def test_names_cover_registry_and_builtin_roundtrip():
    got = zoo.names()
    assert set(got) == {"ex_2_1", "ex_2_2", "ex_2_3", "ex_2_4", "ex_2_5", "ex_2_6", "abs_p"}
    for name in got:
        assert zoo.builtin(name).name == name


def test_builtin_unknown_name():
    with pytest.raises(UnknownName):
        zoo.builtin("ex_9_9")


# dual route: the closed-form oracle_L against a dense brute-force
# maximum of p*v - H(t,x,p) that shares no code with the package
@pytest.mark.parametrize(
    "name", ["ex_2_1", "ex_2_2", "ex_2_3", "ex_2_4", "ex_2_5", "ex_2_6", "abs_p"]
)
def test_oracle_L_matches_brute_conjugate(name):
    spec = zoo.builtin(name)
    t, x = 0.5, 0.7
    probes = zoo.oracle_probe_values(spec.slices(fl.GridPolicy(v_count=25)), t, x)
    want = np.array([brute_conjugate(lambda ps: spec.eval(t, x, ps), v) for v in probes])
    got = np.asarray(spec.oracle_L(t, x, probes), dtype=float)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-2


def test_oracles_give_the_indicator_of_zero_where_H_vanishes():
    # ex_2_1 and ex_2_4 at x = 0 and ex_2_6 on its null set t = 0 have
    # H(t, x, .) = 0, whose conjugate is the indicator of {0}
    v = np.array([-0.5, -0.0, 0.0, 0.3])
    for name, t, x in (("ex_2_1", 0.5, 0.0), ("ex_2_4", 0.5, 0.0), ("ex_2_6", 0.0, 0.7)):
        spec = zoo.builtin(name)
        assert np.all(spec.eval(t, x, np.linspace(-50.0, 50.0, 101)) == 0.0)
        assert np.array_equal(spec.oracle_L(t, x, v), [np.inf, 0.0, 0.0, np.inf])


def test_ex_2_5_printed_variant_disagrees():
    spec = zoo.builtin("ex_2_5")
    t, x, v = 0.5, 0.7, 1.0
    brute = brute_conjugate(lambda ps: spec.eval(t, x, ps), v)
    derived = float(spec.oracle_L(t, x, np.array([v]))[0])
    printed = float(spec.alt_oracle_L(t, x, np.array([v]))[0])
    assert abs(brute - derived) <= 1e-2
    assert abs(brute - printed) >= 0.5


def test_ex_2_3_window_value_outside_trust():
    # at v = 0.1 the true conjugate needs slope 1/v^2 = 100, outside the
    # p-window; the window-limited maximum is the frozen smaller value
    spec = zoo.builtin("ex_2_3")
    brute = brute_conjugate(lambda ps: spec.eval(0.5, 0.0, ps), 0.1)
    assert brute == pytest.approx(EX_2_3_WINDOW_VALUE, abs=1e-6)
    assert float(spec.oracle_L(0.5, 0.0, np.array([0.1]))[0]) == pytest.approx(10.0)
    probes = zoo.oracle_probe_values(spec.slices(), 0.5, 0.0)
    assert float(np.min(probes)) >= 1.0 / np.sqrt(50.0) - 1e-9


def test_probe_values_degenerate_domain():
    probes = zoo.oracle_probe_values(zoo.builtin("ex_2_1").slices(), 0.5, 0.0)
    assert probes.shape == (1,)
    assert probes[0] == pytest.approx(0.0)


@pytest.mark.parametrize("name", ["ex_2_1", "ex_2_2"])
def test_slices_numeric_values_route(name):
    spec = zoo.builtin(name)
    t, x = 0.5, 0.7
    numeric = dataclasses.replace(spec, oracle_L=None).slices()
    probes = zoo.oracle_probe_values(spec.slices(fl.GridPolicy(v_count=17)), t, x)
    got = np.asarray(numeric.values(t, x, probes), dtype=float)
    want = np.asarray(spec.oracle_L(t, x, probes), dtype=float)
    assert np.max(np.abs(got - want)) <= 1e-2


def test_slices_domain_routes():
    spec = zoo.builtin("ex_2_2")
    oracle_dom = spec.slices().domain(0.5, 0.7)
    assert (oracle_dom.lo, oracle_dom.hi) == (-1.0, 1.0)
    numeric_dom = dataclasses.replace(spec, oracle_dom=None).slices().domain(0.5, 0.7)
    assert numeric_dom.lo == pytest.approx(-1.0, abs=1e-2)
    assert numeric_dom.hi == pytest.approx(1.0, abs=1e-2)


def test_modulus_scaled_halves_k_and_w_keeps_c():
    mod = zoo.builtin("ex_2_2").modulus
    half = scaled_modulus(mod, 0.5)
    assert half.k_R(2.0, 0.5) == pytest.approx(0.5 * mod.k_R(2.0, 0.5))
    assert half.w_R(2.0, 0.5, 0.3) == pytest.approx(0.5 * mod.w_R(2.0, 0.5, 0.3))
    assert half.c(0.5) == mod.c(0.5)


@pytest.mark.parametrize("name", ["ex_2_1", "ex_2_2"])
def test_continuity_checks_pass(name):
    spec = zoo.builtin(name)
    assert zoo.check_HLC(spec, R=2.0, samples=SMALL_PLAN).verdict == "pass"
    assert zoo.check_LLC(spec, R=2.0, samples=SMALL_PLAN).verdict == "pass"
    assert zoo.check_MLC(spec, R=2.0, samples=SMALL_PLAN).verdict == "pass"


@pytest.mark.parametrize("name", ["ex_2_1", "ex_2_2"])
def test_continuity_checks_fail_on_halved_modulus(name):
    spec = zoo.builtin(name)
    half = dataclasses.replace(spec, modulus=scaled_modulus(spec.modulus, 0.5))
    assert zoo.check_HLC(half, R=2.0, samples=SMALL_PLAN).verdict == "fail"
    assert zoo.check_LLC(half, R=2.0, samples=SMALL_PLAN).verdict == "fail"
    assert zoo.check_MLC(half, R=2.0, samples=SMALL_PLAN).verdict == "fail"


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_oracle_probes_stay_inside_domain(seed):
    rng = np.random.default_rng(seed)
    spec = zoo.builtin("ex_2_2")
    t = float(rng.uniform(0.05, 0.95))
    x = float(rng.uniform(-2.0, 2.0))
    probes = zoo.oracle_probe_values(spec.slices(fl.GridPolicy(v_count=9)), t, x)
    dom = spec.oracle_dom(t, x)
    assert np.all(probes >= dom.lo - 1e-12)
    assert np.all(probes <= dom.hi + 1e-12)
    assert np.all(np.isfinite(spec.oracle_L(t, x, probes)))


def test_convex_argmin_probes_both_thirds_in_one_call():
    # (u - 0.3)^2, NaN (read as +inf) beyond u = 1.5, on windows that hold
    # the minimizer, end left of it, start right of it or cross the NaN edge
    calls = []

    def f(u):
        calls.append(u.shape)
        return np.where(u > 1.5, np.nan, (u - 0.3) ** 2)

    lo = np.array([-1.0, 0.5, -2.0, 1.0])
    hi = np.array([1.0, 2.0, 0.0, 3.0])
    arg, val = fl._convex_argmin(f, lo, hi)
    assert np.allclose(arg, [0.3, 0.5, 0.0, 1.0], atol=1e-9)
    assert np.allclose(val, (arg - 0.3) ** 2, rtol=0.0, atol=1e-15)
    assert calls == [(8,)] * 72 + [(4,)]


def test_check_LLC_memory_stays_within_one_block():
    # the 64-triple plan has 4,224 ex_2_1 windows; a 65-node stack of
    # them alone would hold 2.2 MB
    spec = zoo.builtin("ex_2_1")
    zoo.check_LLC(spec, 2.0, samples=SamplePlan(seed=0))
    tracemalloc.start()
    try:
        rep = zoo.check_LLC(spec, 2.0, samples=SamplePlan(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "pass" and peak <= 2 * 2**20


def test_check_LLC_searches_no_window_when_k_is_zero(monkeypatch):
    # ex_2_2 has k_R = 0: every u-window is a point, its own minimizer, so
    # each minimum is L at that point, and the one search runs over the
    # distinct slices, never over the windows
    searches, seen = [], []
    real_search, real_min = fl._convex_argmin, zoo.LagrangianSlices.window_min

    def search(f, lo, hi):
        searches.append(len(lo))
        return real_search(f, lo, hi)

    def window_min(self, ts, xs, u0, u1):
        best = real_min(self, ts, xs, u0, u1)
        seen.append((ts, xs, u0, u1, best, self.values(ts, xs, u0)))
        return best

    monkeypatch.setattr(fl, "_convex_argmin", search)
    monkeypatch.setattr(zoo.LagrangianSlices, "window_min", window_min)
    assert zoo.check_LLC(zoo.builtin("ex_2_2"), R=2.0, samples=SMALL_PLAN).verdict == "pass"
    [(ts, xs, u0, u1, best, at_u0)] = seen
    assert np.array_equal(u0, u1) and np.array_equal(best, at_u0)
    n_slices = len(set(zip(ts.tolist(), xs.tolist())))
    assert searches == [n_slices] and n_slices < len(u0)
    # ex_2_1 has k_R = 1: its windows have width, and one search serves them
    del searches[:], seen[:]
    assert zoo.check_LLC(zoo.builtin("ex_2_1"), R=2.0, samples=SMALL_PLAN).verdict == "pass"
    [(ts, xs, u0, u1, _, _)] = seen
    assert np.any(u1 > u0) and searches == [len(set(zip(ts.tolist(), xs.tolist())))]


def test_check_LLC_fails_when_it_judges_no_sample():
    # the edge slopes of the concave -p^2 fall, so its trust interval is
    # inverted and every probe window is empty
    spec = compile_hamiltonian({"name": "neg_quad", "H": "-p^2"})
    rep = zoo.check_LLC(spec, R=2.0, samples=SMALL_PLAN)
    assert rep.verdict == "fail" and rep.worst_margin == -np.inf
    assert rep.witnesses == [{"note": "no sample judged: every probe window or Lagrangian slice was empty"}]


# ex_2_2 with k_R = 0 before t = 0.5 and 0.3 after: one check holds point
# windows beside windows of positive width
MIXED_K = dataclasses.replace(
    zoo.builtin("ex_2_2"),
    name="ex_2_2_mixed_k",
    modulus=zoo.ModulusData(k_R=lambda R, t: 0.0 if t < 0.5 else 0.3, w_R=lambda R, t, r: r, c=lambda t: 1.0),
)


@pytest.mark.parametrize("oracle", [True, False])
@pytest.mark.parametrize("spec", [zoo.builtin(name) for name in zoo.names()] + [MIXED_K], ids=lambda s: s.name)
def test_batched_check_LLC_matches_per_set_search_bit_for_bit(spec, oracle):
    if not oracle:
        spec = dataclasses.replace(spec, oracle_L=None, oracle_dom=None)
    for seed in (0, 1, 2):
        for R in (0.5, 2.0):
            plan = SamplePlan(seed=seed, n_triples=8)
            rep = zoo.check_LLC(spec, R, samples=plan)
            worst, verdict, wit = per_set_check_LLC(spec, R, plan)
            assert np.float64(rep.worst_margin).tobytes() == np.float64(worst).tobytes()
            assert (rep.verdict, rep.witnesses) == (verdict, wit)


def test_check_LLC_runs_one_ternary_search_for_all_windows(monkeypatch):
    searches, windows = [], []
    real_search, real_min = fl._convex_argmin, zoo.LagrangianSlices.window_min

    def search(f, lo, hi):
        searches.append(len(lo))
        return real_search(f, lo, hi)

    def window_min(self, ts, xs, u0, u1):
        windows.append(len(u0))
        return real_min(self, ts, xs, u0, u1)

    monkeypatch.setattr(fl, "_convex_argmin", search)
    monkeypatch.setattr(zoo.LagrangianSlices, "window_min", window_min)
    # 16 triples, two directions each, 33 probes per direction at most: one
    # search over at most one slice per (triple, direction) serves them all
    assert zoo.check_LLC(zoo.builtin("ex_2_1"), R=2.0, samples=SMALL_PLAN).verdict == "pass"
    assert len(windows) == 1 and 33 < windows[0] <= 16 * 2 * 33
    assert len(searches) == 1 and searches[0] <= 16 * 2 < windows[0]


def test_check_LLC_searches_point_windows_with_the_others():
    # k_R = 0 before t = 0.5 and 1 after: the early triples' windows are
    # points and the late ones' are intervals, in one run
    base = zoo.builtin("ex_2_1")
    mod = zoo.ModulusData(k_R=lambda R, t: 0.0 if t < 0.5 else 1.0, w_R=base.modulus.w_R, c=base.modulus.c)
    spec = dataclasses.replace(base, modulus=mod)
    ts = SMALL_PLAN.triples(spec.t_range, 2.0)[:, 0]
    assert np.any(ts < 0.5) and np.any(ts >= 0.5)
    calls = []

    def counting(t, x, v):
        calls.append((np.shape(v), np.broadcast_to(t, np.shape(v)).ravel()))
        return base.oracle_L(t, x, v)

    rep = zoo.check_LLC(dataclasses.replace(spec, oracle_L=counting), R=2.0, samples=SMALL_PLAN)
    assert (rep.worst_margin, rep.verdict, rep.witnesses) == per_set_check_LLC(spec, 2.0, SMALL_PLAN)
    # one probe call over every (triple, direction); then 72 ternary calls
    # and 1 midpoint call, each over every distinct slice, point windows or
    # not; then one clipped call over every window
    shapes = [shape for shape, _ in calls]
    n_sets, n_probes = shapes[0]
    assert n_sets == 2 * len(ts) and n_probes == len(SMALL_PLAN.unit_fractions())
    (n_slices,) = shapes[-2][1:]
    (n_windows,) = shapes[-1]
    assert shapes[1:] == [(2, n_slices)] * 72 + [(1, n_slices), (n_windows,)]
    searched_t = calls[-2][1]
    assert np.any(searched_t < 0.5) and np.any(searched_t >= 0.5)
    assert n_slices <= n_sets < n_windows <= n_sets * n_probes


# every builtin on both routes
LLC_ROUTES = [(name, oracle) for oracle in (True, False) for name in zoo.names()]


@pytest.mark.parametrize("name,oracle", LLC_ROUTES)
@pytest.mark.parametrize("seed", [0, 1])
def test_check_LLC_L_calls_do_not_grow_with_window_sets(name, oracle, seed, monkeypatch):
    spec = zoo.builtin(name)
    if not oracle:
        spec = dataclasses.replace(spec, oracle_L=None, oracle_dom=None)
    calls, conj, searches = [], [], []
    real_values, real_conj, real_search = zoo.LagrangianSlices.values, fl.conjugate_values, fl._convex_argmin

    def values(self, ts, xs, v):
        calls.append((np.shape(v), np.broadcast_arrays(ts, xs, v)[:2]))
        return real_values(self, ts, xs, v)

    def conjugate_values(fn, points):
        conj.append(id(fn))
        return real_conj(fn, points)

    def search(f, lo, hi):
        searches.append(len(lo))
        return real_search(f, lo, hi)

    n_sets = []
    for n_triples in (4, 16):
        plan = SamplePlan(seed=seed, n_triples=n_triples)
        worst, verdict, wit = per_set_check_LLC(spec, 2.0, plan)
        with monkeypatch.context() as m:
            m.setattr(zoo.LagrangianSlices, "values", values)
            m.setattr(fl, "conjugate_values", conjugate_values)
            m.setattr(fl, "_convex_argmin", search)
            del calls[:], conj[:], searches[:]
            rep = zoo.check_LLC(spec, 2.0, samples=plan)
        assert np.float64(rep.worst_margin).tobytes() == np.float64(worst).tobytes()
        assert (rep.verdict, rep.witnesses) == (verdict, wit)
        # one probe call over every (triple, direction), then the minima:
        # one clipped call over every window, after one search over the
        # distinct slices on the oracle route
        (n_windows,), (t_w, b_w) = calls[-1]
        n_slices = len(set(zip(t_w.tolist(), b_w.tolist())))
        assert n_slices < n_windows
        if oracle:
            assert searches == [n_slices] and conj == []
            assert len(calls) == 2 + 73
        else:
            # each kept slice is queried at most twice
            assert searches == [] and len(calls) == 2
            assert max(conj.count(k) for k in set(conj)) <= 2
        n_sets.append(calls[0][0][0])
    assert n_sets[1] > n_sets[0]


def _shifted_quadratic(oracle):
    # argmin L = 0.7, away from 0: L = (v - 0.7)^2 / 2 - |x| / 4
    spec = compile_hamiltonian({"name": "shifted_quad", "H": "p^2/2 + 0.7*p + abs(x)/4"})
    if not oracle:
        return spec
    return dataclasses.replace(spec, oracle_L=lambda t, x, v: (np.asarray(v) - 0.7) ** 2 / 2.0 - np.abs(x) / 4.0)


WINDOW_SPECS = [
    pytest.param(zoo.builtin(n) if o else dataclasses.replace(zoo.builtin(n), oracle_L=None, oracle_dom=None), id=f"{n}-{o}")
    for n in zoo.names()
    for o in (True, False)
] + [
    pytest.param(MIXED_K, id="ex_2_2_mixed_k-True"),
    pytest.param(dataclasses.replace(MIXED_K, oracle_L=None, oracle_dom=None), id="ex_2_2_mixed_k-False"),
    pytest.param(_shifted_quadratic(True), id="shifted_quad-True"),
    pytest.param(_shifted_quadratic(False), id="shifted_quad-False"),
]


@pytest.mark.parametrize("spec", WINDOW_SPECS)
def test_window_min_matches_grid_ternary_search(spec):
    # 24 windows on each of five slices: points, and widths up to 0.3,
    # within 1.2 of the minimizer; the exact minimum never misses the
    # search's finite/inf verdict and agrees with it within 1e-12
    rng = np.random.default_rng(5)
    t = np.repeat([0.2, 0.35, 0.5, 0.65, 0.8], 24)
    x = np.repeat([-0.9, -0.4, 0.0, 0.45, 1.1], 24)
    center = 0.7 if spec.name == "shifted_quad" else 0.0
    u0 = center + rng.uniform(-1.2, 1.2, len(t))
    u1 = u0 + np.where(np.arange(len(t)) % 5 == 0, 0.0, rng.uniform(0.0, 0.3, len(t)))
    slices = spec.slices()
    got = slices.window_min(t, x, u0, u1)
    want = grid_ternary_window_min(lambda U: slices.values(t[:, None], x[:, None], U), u0, u1)
    assert np.array_equal(np.isfinite(got), np.isfinite(want)) and np.any(np.isfinite(want))
    fin = np.isfinite(want)
    assert np.max(np.abs(got[fin] - want[fin])) <= 1e-12
    if spec.oracle_L is None:
        # the numeric minimum is exact: the lowest value over every kink
        exact = [kink_window_min(inline_h_slice(spec.eval, t[i], x[i], slices.p_grid), u0[i : i + 1], u1[i : i + 1]) for i in range(len(t))]
        assert np.array_equal(got, np.concatenate(exact))


@pytest.mark.parametrize("oracle", [True, False])
def test_window_min_matches_grid_ternary_search_bit_for_bit(oracle):
    # ex_2_2 is smooth at its minimizer v = 0, so the exact minimum and the
    # search read the same bits there: point windows are L at their point,
    # and windows of width 0.1, one of them about 0, their minimum
    spec = zoo.builtin("ex_2_2")
    slices = (spec if oracle else dataclasses.replace(spec, oracle_L=None)).slices()

    def f(U):
        return slices.values(0.5, 0.7, U)

    rng = np.random.default_rng(2)
    u = np.concatenate([rng.uniform(-1.2, 1.2, 30), [-1.5, -1.0, 0.0, 1.0, 1.5]])
    for lo, hi in ((u, u.copy()), (u - 0.05, u + 0.05)):
        got = slices.window_min(0.5, 0.7, lo, hi)
        want = grid_ternary_window_min(f, lo, hi)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    # the oracle L is +inf beyond |u| = 1; the numeric one stays finite
    assert np.any(np.isinf(want)) == oracle and np.any(np.isfinite(want))


@pytest.mark.parametrize("oracle", [True, False])
@pytest.mark.parametrize("name", ["ex_2_2"])
def test_blocked_window_min_matches_grid_ternary_search_bit_for_bit(name, oracle, monkeypatch):
    # windows in blocks of 7, 6 and 7 on three slices, every fifth a point:
    # one minimizer per slice, clipped into each window, gives the minimum
    # the one-window search finds at its own (t, x), bit for bit on this
    # slice smooth at its minimizer (the other builtins agree within 1e-12,
    # in test_window_min_matches_grid_ternary_search)
    spec = zoo.builtin(name)
    if not oracle:
        spec = dataclasses.replace(spec, oracle_L=None, oracle_dom=None)
    slices = spec.slices()
    rng = np.random.default_rng(5)
    n = 20
    t = np.repeat([0.25, 0.5, 0.75], [7, 6, 7])
    x = np.repeat([-0.6, 0.4, 0.9], [7, 6, 7])
    u0 = rng.uniform(-1.2, 1.2, n)
    u1 = u0 + np.where(np.arange(n) % 5 == 0, 0.0, rng.uniform(0.0, 0.3, n))
    want = np.concatenate(
        [grid_ternary_window_min(lambda U, i=i: slices.values(t[i], x[i], U), u0[i : i + 1], u1[i : i + 1]) for i in range(n)]
    )
    calls = []
    real = zoo.LagrangianSlices.values

    def counting(self, ts, xs, v):
        calls.append(np.shape(v))
        return real(self, ts, xs, v)

    monkeypatch.setattr(zoo.LagrangianSlices, "values", counting)
    got = slices.window_min(t, x, u0, u1)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    # the oracle route searches the three slices together, 72 probe pairs
    # and the midpoints; then one clipped query over all 20 windows
    assert calls == ([(2, 3)] * 72 + [(1, 3)] if oracle else []) + [(n,)]


def test_check_MLC_fails_on_a_nan_gap_and_names_its_triple(monkeypatch):
    # the first triple's containment gap reads NaN
    spec = zoo.builtin("ex_2_1")
    real = cg.containment_gap
    calls = []

    def nan_first(outer, inner):
        calls.append(None)
        return np.nan if len(calls) == 1 else real(outer, inner)

    monkeypatch.setattr(cg, "containment_gap", nan_first)
    rep = zoo.check_MLC(spec, R=2.0, samples=SMALL_PLAN)
    t, x, y = SMALL_PLAN.triples(spec.t_range, 2.0)[0]
    assert rep.verdict == "fail" and np.isnan(rep.worst_margin)
    assert rep.witnesses == [{"t": t, "x": x, "y": y, "note": "containment gap is NaN"}]


def test_check_MLC_epigraph_at_R_1e300_is_the_full_rectangle():
    # at R = 1e300 ex_2_1's slice is 0 on the whole window [-1e300, 1e300],
    # so capped 3 above its minimum its epigraph is a rectangle. A
    # collinearity tolerance of 1e-12 scale^2 overflows to +inf there, and
    # collapsed it to a segment whose containment gap read NaN
    spec = zoo.builtin("ex_2_1")
    slices = spec.slices()
    t, x, y = SMALL_PLAN.triples(spec.t_range, 1e300)[0]
    W = max(slices.halfwidth(t, x, 1e300), slices.halfwidth(t, y, 1e300))
    Lx = slices.on_grid(t, x, W, trusted=False)
    E = fl.build_epigraph(Lx, Lx.min_value() + 3.0)
    assert E.vertices.tolist() == [[-1e300, 0.0], [1e300, 0.0], [1e300, 3.0], [-1e300, 3.0]]
    # the squared edge lengths overflow in the containment test
    with np.errstate(over="ignore"):
        rep = zoo.check_MLC(spec, R=1e300, samples=SMALL_PLAN)
    assert rep.verdict == "pass" and rep.worst_margin == 0.0


def test_check_MLC_fails_when_it_judges_no_triple():
    rep = zoo.check_MLC(zoo.builtin("ex_2_2"), R=2.0, samples=SamplePlan(n_triples=0))
    assert rep.verdict == "fail" and rep.worst_margin == -np.inf
    assert rep.witnesses == [{"note": "no triple judged: the sample plan is empty"}]


def test_check_HLC_fails_on_a_nan_excess_and_names_its_sample():
    # sqrt(p) is NaN for every p < 0, so the first triple's first negative p
    # is the witness
    spec = compile_hamiltonian({"name": "nanny", "H": "sqrt(p) + abs(x)"})
    with np.errstate(all="ignore"):
        rep = zoo.check_HLC(spec, R=2.0, samples=SMALL_PLAN)
    t, x, y = SMALL_PLAN.triples(spec.t_range, 2.0)[0]
    ps = SMALL_PLAN.p_values(10.0)
    p = ps[np.argmax(ps < 0.0)]
    assert rep.verdict == "fail" and np.isnan(rep.worst_margin)
    assert rep.witnesses == [{"t": t, "x": x, "y": y, "p": p, "note": "excess is NaN"}]


@pytest.mark.parametrize("plan", [SamplePlan(n_triples=0), SamplePlan(n_p=0)])
def test_check_HLC_fails_when_it_judges_no_sample(plan):
    rep = zoo.check_HLC(zoo.builtin("ex_2_2"), R=2.0, samples=plan)
    assert rep.verdict == "fail" and rep.worst_margin == -np.inf
    assert rep.witnesses == [{"note": "no sample judged: the sample plan has no (t, x, y) triple or no p"}]


@pytest.mark.parametrize(
    "field, value",
    [("k_R", lambda R, t: float("nan")), ("w_R", lambda R, t, r: float("nan"))],
    ids=["k_R", "w_R"],
)
def test_check_LLC_fails_on_a_nan_modulus(field, value):
    # a NaN k_R leaves every search window NaN and a NaN w_R every excess:
    # either way the first NaN excess is kept, with its note
    base = zoo.builtin("ex_2_2")
    spec = dataclasses.replace(base, modulus=dataclasses.replace(base.modulus, **{field: value}))
    with np.errstate(all="ignore"):
        rep = zoo.check_LLC(spec, R=2.0, samples=SMALL_PLAN)
    assert rep.verdict == "fail"
    assert np.isnan(rep.worst_margin)
    assert rep.witnesses[0]["note"] == "search window or excess is NaN"
