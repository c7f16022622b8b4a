"""Registry of config-defined Hamiltonians that should pass their audits,
and of those that break a hypothesis and should fail them.

Each passing definition holds the paper's hypotheses by construction and
runs at default grids through `parse_config` and `run`. A definition that fails
today is a strict expected failure whose reason names the ROADMAP item that
will mend it, so that the mend flips it to an unexpected pass. A family
with a parameter runs as a seeded hypothesis test over its draws.
"""

import contextlib
import io
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamrep import cli


def _known_failure(reason: str):
    # an exception other than the failed assertion is not the registered failure
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def _run(doc):
    """Exit code and FAIL lines of one run, its artifacts in a scratch directory."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()) as log:
        code = cli.run(cli.parse_config({**doc, "output_dir": out}))
    return code, [line for line in log.getvalue().splitlines() if line.startswith("FAIL")]


# a draw of the max of three affine pieces a_i p + b_i x + d_i: k_R 0,
# w_R max|b_i| r, c = max|a_i| and lambda at least max L on dom L
_AFFINE_MAX = {
    "name": "affine_max",
    "H": "max(2.703*p - 0.376*x - 0.182, -2.135*p - 0.153*x + 0.099, 2.692*p + 0.655*x - 0.945)",
    "k_R": "0",
    "w_R": "0.655*r",
    "c": "2.703",
    "lambda": "2.1",
}

_DEFINITIONS = [
    pytest.param(
        {"command": "check", "hamiltonian": {"name": "q", "H": "-p/2 + abs(x)/4", "k_R": "0", "w_R": "r/4"}},
        marks=_known_failure(
            "ROADMAP item 16: llc reads +inf, since the one-point numeric domains of L(t, x) and L(t, y) "
            "are widened by rounding bounds that grow with |x|, so a point window at one falls outside the other"
        ),
        id="affine_in_p_check",
    ),
    pytest.param(
        {"command": "represent", "hamiltonian": {"name": "q", "H": "p^2/2 - abs(x)", "k_R": "0", "w_R": "r"}},
        marks=_known_failure(
            "ROADMAP item 2: without c the v-window is read from the slopes at |p| = 50, "
            "and triple_image_gap reads h/2 = 0.085 against 5e-2"
        ),
        id="quadratic_without_c_represent",
    ),
    pytest.param({"command": "check", "hamiltonian": _AFFINE_MAX}, id="affine_max_check"),
    pytest.param(
        {"command": "represent", "kind": "both", "hamiltonian": _AFFINE_MAX},
        marks=_known_failure(
            "ROADMAP item 7: reconstruction_sup_error alone fails, on both builders, at 0.0639 against 5e-2; "
            "the 601-node v-grid loses the ends and vertices of the polygonal L that fall between its nodes"
        ),
        id="affine_max_represent",
    ),
]


@pytest.mark.parametrize("doc", _DEFINITIONS)
def test_definition_passes_at_default_grids(doc):
    assert _run(doc) == (0, [])


# min(p^2, 1 + |p|/10) is not convex in p (H1): its conjugate is that of the
# convex envelope H**, so every continuity check holds on it
_NONCONVEX = {"name": "nc", "H": "min(p^2, 1 + abs(p)/10)", "k_R": "0", "w_R": "0", "c": "1", "lambda": "1"}


@_known_failure(
    "ROADMAP item 3: nothing samples convexity in p, so check passes hlc, llc and mlc and exits 0; "
    "represent (kind both) exits 2 on reconstruction_sup_error alone and does not say why"
)
def test_nonconvex_definition_fails_check():
    code, _ = _run({"command": "check", "hamiltonian": _NONCONVEX})
    assert code != 0


@settings(max_examples=8, derandomize=True, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(-1.0, 1.0))
def test_shifted_abs_family_passes_at_default_grids(a, s):
    # H = a|p - s| + |x|/4: L(t, x, v) = s v - |x|/4 on dom L = [-a, a], so
    # c = a, and lambda = a|s| is max L over dom L
    h = {
        "name": "shifted_abs",
        "H": f"{a!r}*abs(p - ({s!r})) + abs(x)/4",
        "k_R": "0",
        "w_R": "r/4",
        "c": repr(a),
        "lambda": repr(a * abs(s)),
    }
    assert _run({"command": "check", "hamiltonian": h}) == (0, [])
    assert _run({"command": "represent", "kind": "both", "hamiltonian": h}) == (0, [])
