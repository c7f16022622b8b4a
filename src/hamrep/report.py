"""Uniform check reports.

Every verification routine in the toolkit reports through `CheckReport` so
the CLI can render one PASS/FAIL line per check and serialize the full
evidence as JSON with a stable field set.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
from typing import Any

import numpy as np


# every acceptance tolerance by its config name, with its default: each check
# defaults to its entry, and None lets the check derive its own (mlc: 2h + 5e-4
# from the v-grid spacing h)
TOLERANCES = types.MappingProxyType({
    "abs_err": 1e-2, "margin": 0.1, "episum": 2e-2,  # conjugate
    "hlc": 1e-9, "llc": 2e-2, "mlc": None,  # check
    "reconstruction": 5e-2, "soundness": 2e-2, "sandwich": 5e-2,  # represent
    "l_lower": 2e-2, "lip_slack": 5e-3, "image_gap": 5e-2,  # represent, verify
    "lemma41": 2e-2, "blc": 2e-2, "blc_threshold": 1e3,  # compactness
    "bound_slack": 5e-3, "decay_ratio": 0.3, "epigraph_abs": 5e-2,  # stability
})


def sanitize(obj: Any) -> Any:
    """Coerce numpy scalars/arrays and tuples into plain JSON-friendly types."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if hasattr(obj, "tolist"):
        return sanitize(obj.tolist())
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


@dataclasses.dataclass
class CheckReport:
    """Outcome of one named check.

    Parameters
    ----------
    check : str
        Stable identifier of the check ("hlc", "steiner_lipschitz", ...).
    worst_margin : float
        The worst observed slack; positive means violation for pass/fail
        checks, and is informational for verdict-only checks.
    verdict : str
        "pass", "fail", or a free-text verdict for checks that classify
        rather than gate.
    witnesses : list
        Small dicts locating the worst offenders (coordinates, values).
    """

    check: str
    worst_margin: float
    verdict: str
    witnesses: list = dataclasses.field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "worst_margin": sanitize(float(self.worst_margin)),
            "verdict": self.verdict,
            "witnesses": sanitize(self.witnesses),
        }

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.check}: worst_margin={self.worst_margin:.6g} ({self.verdict})"


class Worst:
    """Worst margin of one inequality over its samples, and where it was seen.

    Every gating check keeps one. A margin takes over only when it is
    strictly larger, so of equal margins the first keeps its witness. The
    first NaN is the worst margin of all: it is kept, its witness carries
    `nan_note`, and no later margin replaces it.
    """

    def __init__(self, check: str, nan_note: str = "margin is NaN"):
        self.check = check
        self.nan_note = nan_note
        self.margin = -math.inf
        self.witness: list = []
        self.judged = False

    def see(self, margins, witness=None) -> bool:
        """Judge one margin or an array of them. `witness` is a dict, a
        function of the flat index of the worst entry, or None. Returns
        False once a NaN has been seen, so a loop can stop."""
        if self.margin != self.margin:
            return False
        if isinstance(margins, np.ndarray):
            if margins.size == 0:
                return True
            # argmax returns the first NaN when there is one
            k = int(np.argmax(margins))
            m = float(margins.flat[k])
        else:
            k, m = 0, float(margins)
        self.judged = True
        if m > self.margin or m != m:
            self.margin = m
            w = witness(k) if callable(witness) else witness
            if m != m:
                w = {**(w or {}), "note": self.nan_note}
            self.witness = [] if w is None else [w]
        return m == m

    def report(self, tol: float, empty_note: str = "no sample judged") -> CheckReport:
        """"pass" when the worst margin is at most tol, else "fail"; a
        check that judged nothing fails with `empty_note`."""
        if not self.judged:
            return CheckReport(self.check, self.margin, "fail", [{"note": empty_note}])
        return CheckReport(self.check, self.margin, "pass" if self.margin <= tol else "fail", self.witness)


def reports_to_json(reports: list[CheckReport], **extra: Any) -> str:
    doc = {"schema": 1, "reports": [r.to_dict() for r in reports]}
    doc.update({k: sanitize(v) for k, v in extra.items()})
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
