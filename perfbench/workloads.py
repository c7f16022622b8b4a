"""Workload definitions: the configs each pass runs and the verdicts it must see.

A workload is a fixed list of JSON config documents, generated from the
benchmark seed. The seed reaches the program only as the config "seed".
The p- and v-grids stay at the production defaults (p_count 10001,
v_count 601); only control plans and family lists are reduced so that a
pass fits the run budget.

Each job pins the full list of check names with their verdicts; checks not
listed in `pinned` must read "pass". The CLI exits 2 when a verdict is
"fail" and 0 otherwise.
"""

from __future__ import annotations

import dataclasses

# control plans at the 33-sample floor that parse_config enforces
SMALL_A_PLAN = {"n_box": 6, "n_radii": 3, "n_angles": 12}

BLC_BOUNDED = "bounded, candidate lambda found"
BLC_VIOLATED = "BLC violated (diverging interior sup)"


@dataclasses.dataclass(frozen=True)
class Job:
    """One config run with the report it must produce."""

    doc: dict
    checks: tuple[str, ...]
    pinned: dict = dataclasses.field(default_factory=dict)

    def expected(self) -> list[tuple[str, str]]:
        """(check, verdict) pairs in report order; a check may repeat."""
        return [(name, self.pinned.get(name, "pass")) for name in self.checks]

    def exit_code(self) -> int:
        return 2 if "fail" in self.pinned.values() else 0


def _tagged(names: tuple[str, ...], tags: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(f"{n}[{t}]" for t in tags for n in names)


_TRIPLE_CHECKS = (
    "reconstruction_sup_error",
    "reconstruction_soundness",
    "triple_l_lower_bound",
    "triple_f_growth",
    "triple_lipschitz",
    "triple_membership",
    "triple_image_gap",
)


def _represent(seed: int) -> list[Job]:
    checks = _tagged(_TRIPLE_CHECKS, ("ex_2_2:noncompact",)) + _tagged(
        _TRIPLE_CHECKS + ("sandwich",) * 3, ("ex_2_2:compact",)
    )
    return [
        Job(
            {
                "command": "represent",
                "hamiltonian": "ex_2_2",
                "kind": "both",
                "grids": {"a_plan": dict(SMALL_A_PLAN)},
                "seed": seed,
            },
            checks,
        )
    ]


_CONJUGATE_ALL = (
    "conjugate_oracle_match[ex_2_1]",
    "conjugate_oracle_match[ex_2_2]",
    "conjugate_oracle_match[ex_2_3]",
    "conjugate_oracle_match[ex_2_4]",
    "conjugate_form_selection[ex_2_5]",
    "conjugate_oracle_match[ex_2_6]",
    "conjugate_oracle_match[abs_p]",
)


def _continuity(seed: int) -> list[Job]:
    return [
        Job(
            {"command": "check", "hamiltonian": ["ex_2_1", "ex_2_2"], "R": 2.0, "seed": seed},
            _tagged(("hlc", "llc", "mlc"), ("ex_2_1", "ex_2_2")),
        ),
        Job(
            {"command": "conjugate", "hamiltonian": "all", "seed": seed},
            _CONJUGATE_ALL,
            {"conjugate_form_selection[ex_2_5]": "matches derived form"},
        ),
        Job(
            {
                "command": "conjugate",
                "hamiltonian": "ex_2_2",
                "summand": "0.5*abs(p) + 0.1",
                "seed": seed,
            },
            ("conjugate_oracle_match[ex_2_2]", "episum_identity"),
        ),
    ]


# Slabs are drawn from the window, and a slab's cost grows with the width
# of dom L = [-|x|, |x|]: over the full x-range the three drawn slabs made
# one config's time vary about 3x between seeds. A narrow x-range near 0
# keeps the per-seed times within a few percent of each other and the
# config at about 4 s.
STABILITY_WINDOW = {"x_range": [0.1, 0.2]}
STABILITY_FAMILY = "ex_2_6_absx"


def _audit(seed: int) -> list[Job]:
    # one noncompact family of the stability suite, at a fixed time so that
    # the seed moves only x: a pass then takes 8-12 s and a 40 s run holds
    # three or more passes. ex_2_1_sinx costs as much again and runs the same
    # code; the ex_2_2 families take 18-20 s each.
    compactness_checks = (
        _tagged(("lemma41_epigraph_bound", "blc_certificate"), ("circle_rep_ex_2_2",))
        + ("lemma41_epigraph_bound[family_p_abs]",)
        + _tagged(("lemma41_epigraph_bound", "blc_certificate"), ("hat_rep_ex_2_1",))
        + _tagged(("blc_failure_probe",), ("ex_2_2", "ex_2_3", "ex_2_4"))
    )
    return [
        Job(
            {
                "command": "stability",
                "family": STABILITY_FAMILY,
                "fixed_t": 0.5,
                "epigraph_check": False,
                "window": dict(STABILITY_WINDOW),
                "seed": seed,
            },
            _tagged(("stability_decay", "steiner_composition_bound"), (STABILITY_FAMILY,)),
        ),
        Job(
            {"command": "compactness", "triple": "all", "seed": seed},
            compactness_checks,
            {
                "blc_failure_probe[ex_2_2]": BLC_BOUNDED,
                "blc_failure_probe[ex_2_3]": BLC_VIOLATED,
                "blc_failure_probe[ex_2_4]": BLC_VIOLATED,
            },
        ),
    ]


WORKLOADS = {
    "represent": _represent,
    "continuity": _continuity,
    "audit": _audit,
}


def jobs(workload: str, seed: int) -> list[Job]:
    """The config list of one pass of `workload` at `seed`."""
    return WORKLOADS[workload](seed)
