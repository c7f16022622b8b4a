"""The Lagrangian-slice service against the inline path it replaced.

Every H -> L slice of the package goes through `fenchel.LagrangianSlices`,
built by `HamiltonianSpec.slices` once per check, triple or command; it
alone routes L and dom L to the oracles or the H sample, sets the v-window
half-width, and keeps one H sample per (t, x). These tests hold each
consumer to the old inline composition bit for bit, check that the p-grid
a caller passes reaches the numeric slices and that the pointwise queries
at one (t, x) share one H sample, and keep the service's construction and
the grid primitives from spreading outside their one place again.
"""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest

from _oracles import (
    first_appearance_slabs,
    inline_h_slice,
    inline_lagrangian_slice,
    inline_probe_values,
    inline_widened_trust,
)
from conftest import FAST_APLAN
from hamrep import fenchel as fl
from hamrep import zoo
from hamrep.builder import GridPolicy, Window, build, verify_triple
from hamrep.errors import GridUnderflow
from hamrep.sampling import SamplePlan

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hamrep"
GRIDS = GridPolicy()
P_GRID = fl.UniformGrid(-50.0, 50.0, 10001)
V_COUNT = 601
T0 = 0.5
XS = (-0.7, 0.0, 0.4)
ALL = ["ex_2_1", "ex_2_2", "ex_2_3", "ex_2_4", "ex_2_5", "ex_2_6", "abs_p"]


def _same(got: fl.ConvexGridFunction, want: fl.ConvexGridFunction) -> bool:
    return got.grid == want.grid and np.array_equal(got.values, want.values)


def _line(slope: float) -> zoo.HamiltonianSpec:
    # H = slope * p + |x|: dom L is the single velocity `slope`
    return zoo.HamiltonianSpec(
        name=f"line_{slope}",
        eval=lambda t, x, p: slope * np.asarray(p, dtype=float) + abs(x),
        modulus=zoo.ModulusData(k_R=lambda R, t: 0.0, w_R=lambda R, t, r: r, c=lambda t: 1.0),
    )


@pytest.mark.parametrize("name", ALL + ["line"])
def test_builder_slices_match_inline_path(name):
    # at slope 0.3 the one-point domain falls between v-nodes, so the
    # slice keeps the node nearest to it
    spec = _line(0.3) if name == "line" else zoo.builtin(name)
    core = build("noncompact", spec)._core
    for x in XS:
        c = spec.modulus.c
        if c is not None:
            w = float(c(T0)) * (1.0 + abs(x)) + 1.0
        else:
            w = max(abs(s) for s in fl.slope_range(inline_h_slice(spec.eval, T0, x, P_GRID))) + 1.0
        v_grid = fl.UniformGrid(-w, w, V_COUNT)
        assert _same(core.slice(T0, x), inline_lagrangian_slice(spec.eval, T0, x, P_GRID, v_grid))


@pytest.mark.parametrize("name", ALL)
def test_numeric_evaluators_and_probes_match_inline_path(name):
    spec = zoo.builtin(name)
    numeric = dataclasses.replace(spec, oracle_L=None, oracle_dom=None).slices(GRIDS)
    vs = np.linspace(-2.0, 2.0, 41)
    for x in XS:
        hfn = inline_h_slice(spec.eval, T0, x, P_GRID)
        assert np.array_equal(numeric.values(T0, x, vs), fl.conjugate_values(hfn, vs))
        assert numeric.domain(T0, x) == fl.EffectiveDomain(*inline_widened_trust(hfn))
        got = zoo.oracle_probe_values(spec.slices(GRIDS), T0, x)
        assert np.array_equal(got, inline_probe_values(spec, T0, x, P_GRID))


@pytest.mark.parametrize("name", ALL)
def test_check_MLC_slices_match_inline_path(name, monkeypatch):
    spec = zoo.builtin(name)
    seen = []
    real = zoo.build_epigraph
    monkeypatch.setattr(zoo, "build_epigraph", lambda fn, cap: seen.append(fn) or real(fn, cap))
    plan = SamplePlan(seed=0, n_triples=3)
    R = 2.0
    zoo.check_MLC(spec, R, samples=plan, grids=GRIDS)
    triples = plan.triples(spec.t_range, R)
    assert len(seen) == 2 * len(triples)
    for (t, x, y), got_x, got_y in zip(triples, seen[0::2], seen[1::2]):
        if spec.modulus.c is not None:
            W = spec.modulus.c(t) * (1.0 + R) + 1.0
        else:
            Hx, Hy = (inline_h_slice(spec.eval, t, z, P_GRID) for z in (x, y))
            W = max(abs(s) for s in fl.slope_range(Hx) + fl.slope_range(Hy)) + 1.0
        v_grid = fl.UniformGrid(-W, W, V_COUNT)
        for z, got in ((x, got_x), (y, got_y)):
            assert _same(got, inline_lagrangian_slice(spec.eval, t, z, P_GRID, v_grid, trusted=False))


def test_builder_slice_raises_when_the_domain_misses_the_window():
    # dom L = {5} lies outside the v-window [-2.4, 2.4] at x = 0.4
    with pytest.raises(GridUnderflow):
        build("noncompact", _line(5.0))._core.slice(T0, 0.4)


def test_trusted_slice_keeps_the_nodes_on_exact_trust_ends():
    # ex_2_1's trust interval at x = 1 is [-1, 1], but its edge-slope
    # quotients read -0.999999999999801 and 0.9999999999990905; the
    # trusted slice still keeps the nodes at -1 and 1 (L = 1 at both)
    slices = zoo.builtin("ex_2_1").slices(GridPolicy(v_count=201))
    s_lo, s_hi = slices.trust(T0, 1.0)
    assert -1.0 < s_lo and s_hi < 1.0
    fn = slices.on_grid(T0, 1.0, 2.0)
    kept = fn.grid.nodes()[np.isfinite(fn.values)]
    assert kept[0] == -1.0 and kept[-1] == 1.0
    assert fn.values[np.isfinite(fn.values)][[0, -1]].tolist() == [1.0, 1.0]


def _recording_spec(name, **stripped):
    # a builtin with some oracles removed, recording the size of every
    # p-array H sees
    sizes = []
    base = zoo.builtin(name)

    def ev(t, x, p):
        sizes.append(np.size(p))
        return base.eval(t, x, p)

    return dataclasses.replace(base, eval=ev, **stripped), sizes


def test_numeric_slices_use_the_callers_p_grid():
    grids = GridPolicy(p_count=201)
    plan = SamplePlan(seed=0, n_triples=4)
    spec, sizes = _recording_spec("ex_2_2", oracle_L=None, oracle_dom=None)
    zoo.check_LLC(spec, 2.0, samples=plan, grids=grids)
    assert sizes and {n for n in sizes if n > 1} == {201}
    # ex_2_5 keeps its unbounded oracle domain and has no c(t), so the
    # probe window comes from the H slice's edge slopes
    spec, sizes = _recording_spec("ex_2_5", oracle_L=None)
    zoo.check_LLC(spec, 2.0, samples=plan, grids=grids)
    assert sizes and {n for n in sizes if n > 1} == {201}

    spec, sizes = _recording_spec("ex_2_2", oracle_L=None, oracle_dom=None)
    triple = build("noncompact", spec, grids=GridPolicy(p_count=201, v_count=201), plan=FAST_APLAN)
    reports = verify_triple(triple, Window(), plan=SamplePlan(seed=0), n_pairs=4)
    assert "triple_image_gap" in [r.check for r in reports]
    assert sizes and {n for n in sizes if n > 1} == {201}


def test_pointwise_queries_share_one_H_sample_per_point():
    # ex_2_5 without oracles has no c(t) either, so every query below
    # needs the H sample
    spec, sizes = _recording_spec("ex_2_5", oracle_L=None, oracle_dom=None)
    slices = spec.slices(GRIDS)
    hfn = inline_h_slice(spec.eval, T0, 0.4, P_GRID)
    sizes.clear()
    trust = slices.trust(T0, 0.4)
    assert slices.halfwidth(T0, 0.4) == max(abs(s) for s in trust) + 1.0
    # the domain widens each trust end by its rounding bound
    widened = inline_widened_trust(hfn)
    assert slices.domain(T0, 0.4) == fl.EffectiveDomain(*widened)
    assert slices.bounded_domain(T0, 0.4) == widened
    assert widened[0] < trust[0] and widened[1] > trust[1]
    assert np.array_equal(slices.values(T0, 0.4, [0.0, 1.0]), fl.conjugate_values(hfn, [0.0, 1.0]))
    assert sizes == [P_GRID.count]
    # on_grid keeps nothing: each call samples H afresh
    slices.on_grid(T0, 0.4)
    slices.on_grid(T0, 0.4)
    assert sizes == [P_GRID.count] * 3


@pytest.mark.parametrize("oracle", [True, False])
@pytest.mark.parametrize("name", zoo.names())
def test_per_row_values_match_per_point_calls_bit_for_bit(name, oracle):
    # rows at t = 0 (ex_2_6's null set) and x = 0 (ex_2_1 and ex_2_4's
    # point domain), out of order and repeated, so the numeric route groups
    # rows that are not adjacent
    spec = zoo.builtin(name)
    if not oracle:
        spec = dataclasses.replace(spec, oracle_L=None, oracle_dom=None)
    slices = spec.slices(GRIDS)
    pairs = [(0.0, 0.4), (T0, 0.0), (1.0, -0.7), (T0, 0.4), (0.0, 0.0), (T0, 0.0), (0.3, -0.7)]
    ts, xs = (np.array(col)[:, None] for col in zip(*pairs))
    # each row: a v-grid past dom L, then v = x, v = -x and v = -0.0
    V = np.concatenate([np.tile(np.linspace(-1.5, 1.5, 13), (len(pairs), 1)), xs, -xs, np.full_like(xs, -0.0)], axis=1)

    def bits(a):
        return np.asarray(a, dtype=float).tobytes()

    def per_point(rows_t, rows_x):
        return np.stack([slices.values(float(t), float(x), v) for t, x, v in zip(rows_t, rows_x, V)])

    want = per_point(ts[:, 0], xs[:, 0])
    assert bits(slices.values(ts, xs, V)) == bits(want)
    # a scalar t (or x) serves every row; v flat with one x per entry
    at_t0 = per_point([T0] * len(pairs), xs[:, 0])
    assert bits(slices.values(T0, xs, V)) == bits(at_t0)
    assert bits(slices.values(T0, np.broadcast_to(xs, V.shape).ravel(), V.ravel())) == bits(at_t0)
    assert bits(slices.values(ts, 0.0, V)) == bits(per_point(ts[:, 0], [0.0] * len(pairs)))


@pytest.mark.parametrize("seed", range(4))
def test_row_slabs_match_first_appearance_dict(seed):
    # signed zeros and infinities: -0.0 and 0.0 are one slab, kept as the
    # row that comes first
    rng = np.random.default_rng(seed)
    vals = np.array([0.0, -0.0, 0.5, -3.0, np.inf, -np.inf])
    for n in (0, 1, 2, 7, 40, 300):
        rows = (rng.choice(vals, n), rng.choice(vals, n))
        for ts, xs in (rows, (0.5, rows[1]), (rows[0], -0.0)):
            got, want = fl.row_slabs(ts, xs, n), first_appearance_slabs(ts, xs, n)
            assert got[0] == want[0] and np.signbit(got[0]).tolist() == np.signbit(want[0]).tolist()
            assert np.array_equal(got[1], want[1]) and got[1].dtype == np.intp
    assert fl.row_slabs(0.5, -0.0, 3)[0] == [(0.5, -0.0)]


def test_lagrangian_slices_are_constructed_at_one_site():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "LagrangianSlices":
                    sites.append(f"{path.name}:{node.lineno}")
    assert len(sites) == 1, sites


def test_slice_primitives_are_called_only_in_fenchel():
    primitives = {"conjugate", "conjugate_values", "slope_range"}
    paths = sorted(SRC.glob("*.py"))
    assert "fenchel.py" in [p.name for p in paths]
    calls = []
    for path in paths:
        if path.name == "fenchel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name in primitives:
                    calls.append(f"{path.name}:{node.lineno} {name}(")
            elif isinstance(node, ast.ImportFrom):
                # an imported primitive could be called under another name
                calls += [f"{path.name}:{node.lineno} import {a.name}" for a in node.names if a.name in primitives]
    assert calls == []
