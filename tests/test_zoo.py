import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import EX_2_3_WINDOW_VALUE, brute_conjugate, grid_ternary_window_min, per_set_check_LLC
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
    probes = zoo.oracle_probe_values(spec.slices(), t, x, count=25)
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
    probes = zoo.oracle_probe_values(spec.slices(), t, x, count=17)
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
    half = mod.scaled(0.5)
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
    half = spec.modulus.scaled(0.5)
    assert zoo.check_HLC(spec, R=2.0, samples=SMALL_PLAN, modulus=half).verdict == "fail"
    assert zoo.check_LLC(spec, R=2.0, samples=SMALL_PLAN, modulus=half).verdict == "fail"
    assert zoo.check_MLC(spec, R=2.0, samples=SMALL_PLAN, modulus=half).verdict == "fail"


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_oracle_probes_stay_inside_domain(seed):
    rng = np.random.default_rng(seed)
    spec = zoo.builtin("ex_2_2")
    t = float(rng.uniform(0.05, 0.95))
    x = float(rng.uniform(-2.0, 2.0))
    probes = zoo.oracle_probe_values(spec.slices(), t, x, count=9)
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
    arg, val = zoo._convex_argmin(f, lo, hi)
    assert np.allclose(arg, [0.3, 0.5, 0.0, 1.0], atol=1e-9)
    assert np.allclose(val, (arg - 0.3) ** 2, rtol=0.0, atol=1e-15)
    assert calls == [(8,)] * 72 + [(4,)]


@pytest.mark.parametrize("oracle", [True, False])
def test_window_min_matches_grid_ternary_search_bit_for_bit(oracle):
    # point windows (k|x-y| = 0) take one L call; windows of positive
    # width keep the grid and the ternary; both give the oracle's bits
    spec = zoo.builtin("ex_2_2")
    L = (spec if oracle else dataclasses.replace(spec, oracle_L=None)).slices().values

    def f(u):
        return L(0.5, 0.7, u)

    rng = np.random.default_rng(2)
    u = np.concatenate([rng.uniform(-1.2, 1.2, 30), [-1.5, -1.0, 0.0, 1.0, 1.5]])
    for lo, hi in ((u, u.copy()), (u - 0.05, u + 0.05)):
        got = zoo._window_min(lambda rows, U: f(U), lo, hi)
        want = grid_ternary_window_min(f, lo, hi)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    # the oracle L is +inf beyond |u| = 1; the numeric one stays finite
    assert np.any(np.isinf(want)) == oracle and np.any(np.isfinite(want))


@pytest.mark.parametrize("oracle", [True, False])
@pytest.mark.parametrize("name", zoo.names())
def test_blocked_window_min_matches_grid_ternary_search_bit_for_bit(name, oracle, monkeypatch):
    # three windows per grid block: the grid stage splits into blocks that
    # cut through the rows of one slab, yet each window keeps the minimum
    # the one-window oracle finds at its own (t, x)
    spec = zoo.builtin(name)
    if not oracle:
        spec = dataclasses.replace(spec, oracle_L=None, oracle_dom=None)
    L = spec.slices().values
    monkeypatch.setattr(zoo, "_EPI_BLOCK", 3 * 65 + 7)
    rng = np.random.default_rng(5)
    n = 20
    t = np.repeat([0.25, 0.5, 0.75], [7, 6, 7])
    x = np.repeat([-0.6, 0.4, 0.9], [7, 6, 7])
    u0 = rng.uniform(-1.2, 1.2, n)
    u1 = u0 + np.where(np.arange(n) % 5 == 0, 0.0, rng.uniform(0.0, 0.3, n))
    calls = []

    def f(rows, U):
        calls.append((rows, U.shape))
        return L(t[rows, None], x[rows, None], U)

    got = zoo._window_min(f, u0, u1)
    want = np.concatenate(
        [grid_ternary_window_min(lambda u, i=i: L(t[i], x[i], u), u0[i : i + 1], u1[i : i + 1]) for i in range(n)]
    )
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    # seven grid blocks of at most 3 windows each, in order, then the ternary
    # probes and the midpoints over all 20
    assert [c[0] for c in calls[:7]] == [slice(s, s + 3) for s in range(0, n, 3)]
    assert [c[1] for c in calls[:7]] == [(3, 65)] * 6 + [(2, 65)]
    assert calls[7:] == [(slice(None), (n, 2))] * 72 + [(slice(None), (n, 1))]


def test_check_LLC_memory_stays_within_one_block(monkeypatch):
    # the 64-triple plan has 4,224 ex_2_1 windows; as one 65-node stack
    # their grid stage alone held 2.2 MB and its oracle temporaries 9.6 MB
    spec = zoo.builtin("ex_2_1")
    zoo.check_LLC(spec, 2.0, samples=SamplePlan(seed=0))
    tracemalloc.start()
    try:
        rep = zoo.check_LLC(spec, 2.0, samples=SamplePlan(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "pass" and peak <= 2 * 2**20
    sizes = []
    real = zoo.LagrangianSlices.values

    def counting(self, ts, xs, v):
        sizes.append(np.size(v))
        return real(self, ts, xs, v)

    monkeypatch.setattr(zoo.LagrangianSlices, "values", counting)
    zoo.check_LLC(spec, 2.0, samples=SamplePlan(seed=0))
    assert len(sizes) > 75 and max(sizes) <= zoo._EPI_BLOCK


def test_check_LLC_searches_no_window_when_k_is_zero(monkeypatch):
    calls = []
    real = zoo._convex_argmin

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(zoo, "_convex_argmin", counting)
    # ex_2_2 has k_R = 0: every u-window is a point
    assert zoo.check_LLC(zoo.builtin("ex_2_2"), R=2.0, samples=SMALL_PLAN).verdict == "pass"
    assert calls == []
    # ex_2_1 has k_R = 1: its windows still get the ternary search
    assert zoo.check_LLC(zoo.builtin("ex_2_1"), R=2.0, samples=SMALL_PLAN).verdict == "pass"
    assert calls


def test_check_LLC_fails_when_it_judges_no_sample():
    # the edge slopes of the concave -p^2 fall, so its trust interval is
    # inverted and every probe window is empty
    spec = compile_hamiltonian({"name": "neg_quad", "H": "-p^2"})
    rep = zoo.check_LLC(spec, R=2.0, samples=SMALL_PLAN)
    assert rep.verdict == "fail" and rep.worst_margin == -np.inf
    assert rep.witnesses == [{"note": "no sample judged: every probe window or Lagrangian slice was empty"}]


# ex_2_2 with k_R = 0 before t = 0.5 and 0.3 after: the one window search
# holds point windows beside windows of positive width, while the per-set
# search decides each all-point set with one call
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
    calls = []
    real = zoo._convex_argmin

    def counting(f, lo, hi):
        calls.append(len(lo))
        return real(f, lo, hi)

    monkeypatch.setattr(zoo, "_convex_argmin", counting)
    # 16 triples, two directions each, 33 probes per direction at most
    assert zoo.check_LLC(zoo.builtin("ex_2_1"), R=2.0, samples=SMALL_PLAN).verdict == "pass"
    assert len(calls) == 1 and 33 < calls[0] <= 16 * 2 * 33


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
        calls.append((np.shape(v), np.ravel(x)))
        return base.oracle_L(t, x, v)

    rep = zoo.check_LLC(dataclasses.replace(spec, oracle_L=counting), R=2.0, samples=SMALL_PLAN)
    assert (rep.worst_margin, rep.verdict, rep.witnesses) == per_set_check_LLC(spec, 2.0, SMALL_PLAN)
    # one probe call over every (triple, direction); then the grid stage in
    # consecutive blocks of whole windows, which cover every window in
    # order; then 72 ternary calls and 1 midpoint call, each over every
    # window, point or not
    shapes = [shape for shape, _ in calls]
    n_sets, n_probes = shapes[0]
    assert n_sets == 2 * len(ts) and n_probes == len(SMALL_PLAN.unit_fractions())
    n_windows = shapes[-1][0]
    step = zoo._EPI_BLOCK // 65
    n_blocks = -(-n_windows // step)
    assert shapes[1 : 1 + n_blocks] == [(step, 65)] * (n_blocks - 1) + [(n_windows - step * (n_blocks - 1), 65)]
    assert shapes[1 + n_blocks :] == [(n_windows, 2)] * 72 + [(n_windows, 1)]
    blocks_x = np.concatenate([x for _, x in calls[1 : 1 + n_blocks]])
    assert np.array_equal(blocks_x, calls[-1][1])
    assert n_sets < n_windows <= n_sets * n_probes


# builtins with oracle_L, and ex_2_1 on the numeric route
LLC_ROUTES = [(name, True) for name in zoo.names() if zoo.builtin(name).oracle_L is not None] + [("ex_2_1", False)]


@pytest.mark.parametrize("name,oracle", LLC_ROUTES)
@pytest.mark.parametrize("seed", [0, 1])
def test_check_LLC_L_calls_do_not_grow_with_window_sets(name, oracle, seed, monkeypatch):
    spec = zoo.builtin(name)
    if not oracle:
        spec = dataclasses.replace(spec, oracle_L=None, oracle_dom=None)
    calls = []
    real = zoo.LagrangianSlices.values

    def counting(self, ts, xs, v):
        calls.append(np.shape(v))
        return real(self, ts, xs, v)

    monkeypatch.setattr(zoo.LagrangianSlices, "values", counting)
    n_sets = []
    for n_triples in (4, 16):
        plan = SamplePlan(seed=seed, n_triples=n_triples)
        del calls[:]
        rep = zoo.check_LLC(spec, 2.0, samples=plan)
        worst, verdict, wit = per_set_check_LLC(spec, 2.0, plan)
        assert np.float64(rep.worst_margin).tobytes() == np.float64(worst).tobytes()
        assert (rep.verdict, rep.witnesses) == (verdict, wit)
        # one probe call, then one call when every window is a point, else
        # the grid stage in blocks of whole windows and 73 ternary and
        # midpoint calls over all of them
        n_windows = calls[-1][0]
        assert len(calls) in (2, 74 + -(-n_windows // (zoo._EPI_BLOCK // 65)))
        n_sets.append(calls[0][0])
    assert n_sets[1] > n_sets[0]


def test_check_MLC_fails_on_a_nan_gap_and_names_its_triple():
    # at R = 1e300 the v-window overflows and every containment gap is NaN
    spec = zoo.builtin("ex_2_1")
    with np.errstate(all="ignore"):
        rep = zoo.check_MLC(spec, R=1e300, samples=SMALL_PLAN)
    t, x, y = SMALL_PLAN.triples(spec.t_range, 1e300)[0]
    assert rep.verdict == "fail" and np.isnan(rep.worst_margin)
    assert rep.witnesses == [{"t": t, "x": x, "y": y, "note": "containment gap is NaN"}]


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
