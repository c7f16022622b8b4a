import json

import numpy as np
import pytest

from hamrep.report import CheckReport, Worst, reports_to_json, sanitize


def test_sanitize_handles_numpy_and_inf():
    out = sanitize({"a": np.float64(1.5), "b": np.inf, "c": [np.int64(2), -np.inf]})
    assert out == {"a": 1.5, "b": "inf", "c": [2, "-inf"]}


def test_passed_and_line():
    r = CheckReport("demo", 0.5, "pass", [])
    assert r.passed
    assert r.line() == "PASS demo: worst_margin=0.5 (pass)"
    f = CheckReport("demo", np.inf, "fail", [])
    assert not f.passed
    assert f.line().startswith("FAIL demo")


def test_free_text_verdicts_count_as_informational():
    r = CheckReport("probe", 1.0, "BLC violated (diverging interior sup)", [])
    assert r.passed


def test_reports_to_json_shape_and_determinism():
    reports = [
        CheckReport("b", 1.0, "pass", [{"x": np.float32(2.0)}]),
        CheckReport("a", -np.inf, "fail", []),
    ]
    doc1 = reports_to_json(reports, command="check", seed=0)
    doc2 = reports_to_json(reports, command="check", seed=0)
    assert doc1 == doc2
    assert doc1.endswith("\n")
    parsed = json.loads(doc1)
    assert parsed["schema"] == 1
    assert parsed["command"] == "check"
    assert [r["check"] for r in parsed["reports"]] == ["b", "a"]
    assert parsed["reports"][1]["worst_margin"] == "-inf"


def test_worst_keeps_the_first_of_equal_margins():
    w = Worst("demo")
    assert w.see(0.5, {"at": 1})
    assert w.see(np.array([0.1, 0.5, 0.5]), lambda k: {"at": 10 + k})
    assert w.see(0.5, {"at": 3})
    rep = w.report(1.0)
    assert rep == CheckReport("demo", 0.5, "pass", [{"at": 1}])
    # an array's first maximal entry is its witness
    w = Worst("demo")
    w.see(np.array([[0.0, 2.0], [2.0, 1.0]]), lambda k: {"at": k})
    assert w.witness == [{"at": 1}]


def test_worst_keeps_the_first_nan_and_stops_the_loop():
    w = Worst("demo", nan_note="gap is NaN")
    seen = []
    for k, m in enumerate([0.1, np.array([0.2, np.nan, np.nan]), np.inf, np.nan]):
        seen.append(k)
        if not w.see(m, lambda j: {"k": k, "j": j}):
            break
    assert seen == [0, 1]
    assert not w.see(np.inf, {"k": 9})
    rep = w.report(np.inf)
    assert rep.verdict == "fail" and np.isnan(rep.worst_margin)
    assert rep.witnesses == [{"k": 1, "j": 1, "note": "gap is NaN"}]
    # a NaN without a witness still says so
    w = Worst("demo")
    w.see(float("nan"))
    assert w.report(0.0).witnesses == [{"note": "margin is NaN"}]


def test_worst_passes_a_margin_equal_to_tol():
    w = Worst("demo")
    w.see(np.float64(1e-9))
    assert w.report(1e-9).verdict == "pass"
    assert w.report(np.nextafter(1e-9, 0.0)).verdict == "fail"


def test_worst_fails_when_nothing_was_judged():
    w = Worst("demo")
    assert w.see(np.array([]), {"never": True})
    rep = w.report(np.inf, "nothing to judge")
    assert rep == CheckReport("demo", -np.inf, "fail", [{"note": "nothing to judge"}])
    assert Worst("demo").report(0.0).witnesses == [{"note": "no sample judged"}]
