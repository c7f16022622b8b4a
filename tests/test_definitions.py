"""Registry of config-defined Hamiltonians that should pass their audits.

Each definition holds the paper's hypotheses by construction and runs at
default grids through `parse_config` and `run`. A definition that fails
today is a strict expected failure whose reason names the ROADMAP item that
will mend it, so that the mend flips it to an unexpected pass.
"""

import pytest

from hamrep import cli


def _known_failure(reason: str):
    # an exception other than the failed assertion is not the registered failure
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


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
]


@pytest.mark.parametrize("doc", _DEFINITIONS)
def test_definition_passes_at_default_grids(doc, tmp_path, capsys):
    code = cli.run(cli.parse_config({**doc, "output_dir": str(tmp_path)}))
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert (code, failed) == (0, [])
