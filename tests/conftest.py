"""Shared fixtures: coarse grids keep unit tests fast, session-scoped
builds are reused wherever a test only reads from a triple."""

import sys

import pytest

from hamrep import zoo
from hamrep.builder import APlan, GridPolicy, build
from hamrep.sampling import SamplePlan

# coarse but above every validation floor; unit tests that probe exact
# identities do not need the production grids
FAST_POLICY = GridPolicy(p_count=801, v_count=201)
FAST_APLAN = APlan(n_box=8, n_radii=6, n_angles=6)
FAST_PLAN = SamplePlan(seed=0, n_triples=16)


@pytest.fixture(scope="session")
def ex22_noncompact_fast():
    return build("noncompact", zoo.builtin("ex_2_2"), grids=FAST_POLICY, plan=FAST_APLAN)


@pytest.fixture(scope="session")
def ex22_compact_fast():
    return build("compact", zoo.builtin("ex_2_2"), grids=FAST_POLICY, plan=FAST_APLAN)


@pytest.fixture(scope="session")
def ex21_noncompact_fast():
    return build("noncompact", zoo.builtin("ex_2_1"), grids=FAST_POLICY, plan=FAST_APLAN)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for key in sorted(lines):
            terminalreporter.write_line(lines[key])
