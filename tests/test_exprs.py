import inspect
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamrep import cli
from hamrep.errors import ConfigError
from hamrep.exprs import compile_expr, compile_hamiltonian, compile_piecewise


def test_arithmetic_and_precedence():
    f = compile_expr("2*p^2 - x/4 + 1", ("t", "x", "p"))
    assert f(0.0, 2.0, np.array([3.0]))[0] == pytest.approx(18.5)


def test_unicode_operators_normalized():
    f = compile_expr("p × 2 ÷ 4 − 1", ("t", "x", "p"))
    assert f(0.0, 0.0, np.array([6.0]))[0] == pytest.approx(2.0)


# abs, sqrt, ln once compiled to the identity on single arguments
@pytest.mark.parametrize(
    "src, arg, want",
    [
        ("abs(p)", -3.0, 3.0),
        ("sqrt(abs(p))", -4.0, 2.0),
        ("ln(abs(p))", -float(np.e), 1.0),
        ("max(p, 0)", -2.0, 0.0),
        ("min(p, 0)", -2.0, -2.0),
        ("max(p, 1, 2, t + 3)", 0.0, 3.0),
    ],
)
def test_functions_on_negative_arguments(src, arg, want):
    f = compile_expr(src, ("t", "x", "p"))
    assert f(0.0, 0.0, np.array([arg]))[0] == pytest.approx(want)


def test_vectorized_over_p():
    f = compile_expr("max(abs(p) - 1, 0)", ("t", "x", "p"))
    got = f(0.0, 0.0, np.array([-3.0, -0.5, 0.0, 2.0]))
    assert np.allclose(got, [2.0, 0.0, 0.0, 1.0])


def test_expressions_take_the_broadcast_shape_of_all_values():
    # a constant, or an expression without p, still follows the p-array
    ps = np.array([-1.0, 0.0, 2.0])
    assert np.array_equal(compile_expr("1", ("t", "x", "p"))(0.5, 0.2, ps), np.ones(3))
    assert np.array_equal(compile_expr("abs(x)", ("t", "x", "p"))(0.5, -2.0, ps), np.full(3, 2.0))
    assert compile_expr("x > 0", ("t", "x", "p"))(0.5, 1.0, ps).tolist() == [True] * 3
    # all-scalar input keeps a scalar result
    assert compile_expr("2", ("R", "t"))(1.0, 0.5) == 2.0


@pytest.mark.parametrize(
    "bad",
    [
        "__import__('os')",
        "p.__class__",
        "lambda v: v",
        "[1, 2]",
        "p @ p",
        "unknown(p)",
        "q + 1",
        "max(p)",
    ],
)
def test_rejects_non_whitelisted_syntax(bad):
    with pytest.raises(ConfigError):
        compile_expr(bad, ("t", "x", "p"))


def test_piecewise_first_match_wins():
    f = compile_piecewise(
        {
            "pieces": [
                {"when": "p >= 1", "value": "p - 1"},
                {"when": "p >= 0", "value": "0"},
                {"value": "-2*sqrt(abs(p))"},
            ]
        },
        ("t", "x", "p"),
    )
    got = f(0.0, 0.0, np.array([4.0, 0.5, -4.0]))
    assert np.allclose(got, [3.0, 0.0, -4.0])


def test_piecewise_requires_unguarded_last_piece():
    with pytest.raises(ConfigError):
        compile_piecewise(
            {"pieces": [{"when": "p >= 0", "value": "p"}]}, ("t", "x", "p")
        )
    with pytest.raises(ConfigError):
        compile_piecewise(
            {"pieces": [{"value": "p"}, {"when": "p >= 0", "value": "p"}]},
            ("t", "x", "p"),
        )


def test_chained_comparison_folds_to_and():
    f = compile_piecewise(
        {"pieces": [{"when": "0 <= p <= 1", "value": "1"}, {"value": "0"}]},
        ("t", "x", "p"),
    )
    assert np.allclose(f(0.0, 0.0, np.array([-0.5, 0.5, 2.0])), [0.0, 1.0, 0.0])


def test_compile_hamiltonian_full_spec():
    spec = compile_hamiltonian(
        {
            "name": "toy",
            "H": "sqrt(1 + p^2) - abs(x)",
            "k_R": "0",
            "w_R": "r",
            "c": "1",
            "lambda": "abs(x)",
        }
    )
    assert spec.name == "toy"
    # H4 and BLC hold: a c(t) and a lambda are given
    assert spec.modulus.c is not None and spec.lambda_bound is not None
    vals = spec.eval(0.5, -0.5, np.array([0.0]))
    assert vals[0] == pytest.approx(0.5)
    assert spec.modulus.w_R(2.0, 0.5, 0.25) == pytest.approx(0.25)
    assert spec.lambda_bound.eval(0.5, -2.0) == pytest.approx(2.0)


def test_compile_hamiltonian_defaults_flags():
    spec = compile_hamiltonian({"name": "bare", "H": "abs(p)", "k_R": "0", "w_R": "r"})
    # without "c" and "lambda", H4 and BLC do not hold
    assert spec.modulus.c is None
    assert spec.lambda_bound is None


def test_compile_hamiltonian_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        compile_hamiltonian({"name": "x", "H": "p", "bogus": 1})


def test_compile_hamiltonian_flags_are_json_booleans(tmp_path, capsys):
    # hypotheses are read off "c" and "lambda": a "flags" object is an unknown key
    defn = {"name": "x", "H": "abs(p)", "flags": {"H4": False}}
    with pytest.raises(ConfigError, match="unknown hamiltonian definition key"):
        compile_hamiltonian(defn)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"command": "check", "hamiltonian": defn}), encoding="utf-8")
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0] == "error: unknown hamiltonian definition key(s): flags"


@pytest.mark.parametrize("src", ["-" * 5000 + "p", "abs(" * 2000 + "p" + ")" * 2000])
def test_deep_nesting_is_a_config_error(src):
    with pytest.raises(ConfigError, match="nests too deeply|cannot parse"):
        compile_expr(src, ("t", "x", "p"))


def test_deep_expression_called_near_the_recursion_limit():
    # compiled with room to spare, then called with less room than it nests
    f = compile_expr("-" * 400 + "p", ("t", "x", "p"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 200)
    try:
        with pytest.raises(ConfigError, match="nests too deeply"):
            f(0.0, 0.0, np.array([1.0]))
    finally:
        sys.setrecursionlimit(limit)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_compiled_matches_numpy_reference(x, p):
    f = compile_expr("max(abs(p)*abs(x) - 1, 0)", ("t", "x", "p"))
    want = max(abs(p) * abs(x) - 1.0, 0.0)
    assert f(0.0, x, np.array([p]))[0] == pytest.approx(want, abs=1e-12)
