import contextlib
import dataclasses
import io
import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamrep import cli
from hamrep.builder import APlan, GridPolicy, Window
from hamrep.errors import ConfigError
from hamrep.report import TOLERANCES

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _parse(**doc):
    doc.setdefault("command", "conjugate")
    return cli.parse_config(doc)


def test_parse_defaults():
    cfg = _parse()
    assert cfg.command == "conjugate"
    assert cfg.hamiltonian == "ex_2_2"
    assert cfg.window.t_range == (0.0, 1.0)
    assert cfg.window.x_range == (-1.0, 1.0)
    assert cfg.window.p_range == (-3.0, 3.0)
    assert (cfg.grids.v_count, cfg.grids.p_count) == (601, 10001)
    assert cfg.seed == 0
    assert cfg.output_dir == "out"
    assert cfg.kind == "noncompact"
    assert cfg.R == 2.0
    assert cfg.epigraph_check is True
    assert cfg.geometry is False


def test_parse_flag_overrides_win():
    doc = {"command": "conjugate", "seed": 3, "output_dir": "cfgout", "tolerances": {"abs_err": 0.5}}
    cfg = cli.parse_config(doc, seed=9, out="flagout", tols={"abs_err": 0.25})
    assert cfg.seed == 9
    assert cfg.output_dir == "flagout"
    assert cfg.tol("abs_err") == 0.25


# each case names the bound it breaks; a key a command does not read is
# tried on a command that reads it, so the case still reaches its reader
_BAD_CONFIGS = [
    ({"command": "fourier"}, "command must be one of"),
    ({"command": "conjugate", "bogus": 1}, "unknown config key 'bogus'"),
    ({"command": "conjugate", "window": {"t_range": [1.0, 0.0]}}, "window.t_range must be a nonempty"),
    ({"command": "conjugate", "window": {"x_range": [0.0]}}, "window.x_range must be a two-number"),
    ({"command": "conjugate", "window": "narrow"}, '"window" must be an object'),
    ({"command": "conjugate", "grids": {"v_count": 32}}, r"grids.v_count must be an integer in \[33"),
    ({"command": "conjugate", "grids": {"p_count": True}}, "grids.p_count must be an integer"),
    ({"command": "represent", "grids": {"a_plan": {"n_box": 5}}}, "n_box must be an integer >= 6"),
    ({"command": "represent", "grids": {"a_plan": {"n_angles": 4}}}, "n_angles must be an integer >= 8"),
    ({"command": "represent", "grids": {"a_plan": {"box_half": 3.0}}}, "unknown config key 'grids.a_plan.box_half'"),
    ({"command": "conjugate", "seed": -1}, "seed must be an integer >= 0"),
    ({"command": "conjugate", "seed": True}, "seed must be an integer >= 0"),
    ({"command": "conjugate", "tolerances": {"abs_err": "tight"}}, "tolerances.abs_err must be a finite"),
    ({"command": "stability", "family": "ex_2_6_absx", "kind": "both"}, 'kind "both" is only valid'),
    ({"command": "represent", "kind": "inflated"}, "kind must be one of"),
    ({"command": "stability", "family": "ex_9_9", "fixed_t": 0.5}, "family must be one of"),
    ({"command": "stability", "family": "ex_2_6_absx", "fixed_t": 2.0}, "outside window.t_range"),
    ({"command": "verify", "triple": "all"}, 'triple "all" is only valid'),
    ({"command": "verify", "triple": "mystery_rep"}, "triple must be one of"),
    ({"command": "conjugate", "hamiltonian": ["ex_2_1", "ex_2_2"]}, "list of builtin names is only valid"),
    ({"command": "check", "hamiltonian": []}, "hamiltonian must be a builtin name"),
    ({"command": "check", "hamiltonian": ["ex_2_1", 7]}, "hamiltonian must be a builtin name"),
    ({"command": "conjugate", "hamiltonian": 42}, "hamiltonian must be a builtin name"),
    ({"command": "check", "summand": "abs(p)"}, "summand is not read by check, only by conjugate"),
    ({"command": "conjugate", "hamiltonian": "all", "summand": "abs(p)"}, "needs a single hamiltonian"),
    ({"command": "conjugate", "summand": "while True: p"}, "cannot parse expression"),
    # keys the document sets that the chosen branch would ignore
    ({"command": "verify", "triple": "hat_rep_ex_2_1", "hamiltonian": "ex_2_1"}, '"hamiltonian" has no effect'),
    ({"command": "verify", "triple": "hat_rep_ex_2_1", "kind": "compact"}, '"kind" has no effect next to'),
    ({"command": "verify", "triple": "hat_rep_ex_2_1", "kind": "noncompact"}, '"kind" has no effect next to'),
    ({"command": "compactness", "triple": "family_p_abs", "hamiltonian": "ex_2_2"}, '"hamiltonian" has no effect'),
    ({"command": "verify", "triple": "hat_rep_ex_2_1", "grids": {"p_count": 801}}, '"grids.p_count" has no effect'),
    ({"command": "verify", "triple": "circle_rep_ex_2_2", "grids": {"v_count": 201}}, '"grids.v_count" has no effect'),
    (
        {"command": "verify", "triple": "hat_rep_ex_2_1", "grids": {"a_plan": {"n_box": 7}}},
        '"grids.a_plan.n_box" has no effect',
    ),
    ({"command": "compactness", "triple": "hat_rep_ex_2_1", "grids": {"p_count": 801}}, '"grids.p_count" has no effect'),
    ({"command": "compactness", "triple": "all", "hamiltonian": "ex_2_2"}, '"hamiltonian" has no effect'),
    ({"command": "stability", "family": "all", "kind": "compact"}, '"kind" has no effect with'),
    ({"command": "stability", "family": "all", "fixed_t": 0.5}, '"fixed_t" has no effect'),
]


@pytest.mark.parametrize(
    "doc, match", _BAD_CONFIGS, ids=[f"doc{i}" for i in range(len(_BAD_CONFIGS))]
)
def test_parse_rejects_bad_configs(doc, match):
    with pytest.raises(ConfigError, match=match):
        cli.parse_config(doc)


def test_parse_accepts_gated_shapes():
    assert _parse(command="represent", kind="both").kind == "both"
    assert _parse(command="verify", hamiltonian=["ex_2_1", "ex_2_2"]).hamiltonian == [
        "ex_2_1",
        "ex_2_2",
    ]
    assert _parse(command="compactness", triple="all").triple == "all"
    assert _parse(command="stability", family="all").family == "all"
    # detect_blc_failure reads p_count under triple "all"; a named triple reads no grid
    assert _parse(command="compactness", triple="all", grids={"p_count": 801}).grids.p_count == 801
    with pytest.raises(ConfigError, match='"grids.v_count" has no effect next to a "triple"'):
        _parse(command="verify", triple="hat_rep_ex_2_1", grids={"v_count": 201})
    assert _parse(command="stability", family="ex_2_6_absx", kind="compact", fixed_t=0.5).fixed_t == 0.5
    assert _parse(command="conjugate", summand="0.5*abs(p) + 0.1").summand == "0.5*abs(p) + 0.1"
    assert _parse(command="check", R=cli.R_CAP).R == cli.R_CAP


def test_shipped_configs_parse():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) == 11
    for path in paths:
        cfg = cli.parse_config(json.loads(path.read_text()))
        assert cfg.command in cli.COMMANDS


def test_fmt_cell():
    assert cli._fmt_cell(0.5) == "0.5"
    assert cli._fmt_cell(float("inf")) == "inf"
    assert cli._fmt_cell(float("-inf")) == "-inf"
    assert cli._fmt_cell(float("nan")) == "nan"
    assert cli._fmt_cell("a, b") == "a; b"
    assert cli._fmt_cell(7) == "7"


def test_fmt_cell_writes_numpy_floats_as_python_floats():
    assert cli._fmt_cell(np.float64(0.5)) == "0.5"
    assert cli._fmt_cell(np.float32(0.5)) == "0.5"
    assert cli._fmt_cell(np.float64(np.inf)) == "inf"
    assert cli._fmt_cell(np.float32(-np.inf)) == "-inf"
    assert cli._fmt_cell(np.float64(np.nan)) == "nan"
    assert cli._fmt_cell(np.float64(-0.0)) == cli._fmt_cell(-0.0) == "-0.0"
    assert cli._fmt_cell(np.float64(0.1)) == cli._fmt_cell(0.1) == "0.1"


def test_ham_tag_shapes():
    assert cli._ham_tag(_parse(hamiltonian="ex_2_1")) == "ex_2_1"
    assert cli._ham_tag(_parse(command="check", hamiltonian=["ex_2_1", "ex_2_2"])) == "ex_2_1_ex_2_2"
    assert (
        cli._ham_tag(_parse(command="verify", triple="hat_rep_ex_2_1")) == "hat_rep_ex_2_1"
    )
    assert cli._ham_tag(_parse(command="stability", family="ex_2_2_cos")) == "ex_2_2_cos"
    custom = _parse(
        command="check",
        hamiltonian={"name": "my H", "H": "abs(p)", "k_R": "0", "w_R": "r", "c": "1"},
    )
    assert cli._ham_tag(custom) == "my_H"


def _write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_main_config_errors(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["--config", str(bad)]) == 1
    unk = _write_config(tmp_path, {"command": "conjugate", "hamiltonian": "ex_9_9"}, "unk.json")
    assert cli.main(["--config", unk]) == 1
    ok = _write_config(tmp_path, {"command": "zoo-list"})
    assert cli.main(["--config", ok, "--tol", "oops"]) == 1
    assert cli.main(["--config", ok, "--seed", "-2"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "doc",
    [
        {"command": "check", "R": "abc"},
        {"command": "check", "R": -2},
        {"command": "check", "R": 0},
        {"command": "check", "R": float("nan")},
        {"command": "check", "R": 10**400},
        {"command": "stability", "family": "ex_2_6_absx", "fixed_t": "x"},
        {"command": "represent", "grids": {"a_plan": {"box_half": "q"}}},
        {"command": "conjugate", "window": {"x_range": [-1.0, float("inf")]}},
        {"command": "stability", "family": "ex_2_6_absx", "epigraph_check": "false"},
        {"command": "check", "geometry": 0},
        {"command": "check", "tolerances": {"hcl": 1e-30}},
        {"command": "verify", "tolerances": {"reconstruction": 0.1}},
        {"command": "zoo-list", "tolerances": {"abs_err": 0.1}},
        {"command": "check", "tolerances": [1]},
        {"command": "compactness", "triple": ["x"]},
        # unknown keys at each depth
        {"command": "check", "bogus": 1},
        {"command": "represent", "grids": {"v_cout": 100}},
        {"command": "conjugate", "window": {"x_rnge": [0, 1]}},
        {"command": "represent", "grids": {"a_plan": {"nbox": 3}}},
        {"command": "conjugate", "output_dir": None},
        {"command": "conjugate", "output_dir": 7},
        {"command": "check", "tolerances": {"llc": float("nan")}},
        {"command": "check", "tolerances": {"llc": float("inf")}},
        # keys the command does not read
        {"command": "represent", "fixed_t": 0.5},
        {"command": "conjugate", "kind": "compact"},
        {"command": "check", "family": "all"},
        # grids next to a named triple, which carries its own
        {"command": "verify", "triple": "circle_rep_ex_2_2", "grids": {"p_count": 801}},
        {"command": "compactness", "triple": "hat_rep_ex_2_1", "grids": {"p_count": 10001}},
        # grid counts above the cap, refused before any grid is built
        {"command": "represent", "grids": {"v_count": 100_000_000}},
        {"command": "conjugate", "grids": {"p_count": cli.GRID_CAP + 1}},
        {"command": "conjugate", "summand": "-" * 5000 + "p"},
        {"command": "check", "hamiltonian": {"name": "h", "H": "abs(p)", "flags": {"H4": "false"}}},
        # a radius past R_CAP: at 1e300 every MLC gap of ex_2_1 was NaN and the check passed
        {"command": "check", "hamiltonian": "ex_2_1", "R": 1e300},
        # moduli out of range where a run reads them: each crashed with a traceback
        *(
            {"command": command, "hamiltonian": {"name": "q", "H": "p^2/2", "c": "1", key: value}}
            for command, key, value in (
                ("check", "c", "-5"),
                ("represent", "c", "-5"),
                ("check", "c", "0/0"),
                ("represent", "c", "0/0"),
                ("check", "k_R", "-1"),
                ("check", "k_R", "0/0"),
                ("represent", "k_R", "0/0"),
                ("check", "w_R", "-1"),
            )
        ),
        {
            "command": "represent",
            "kind": "compact",
            "hamiltonian": {"name": "q", "H": "p^2/2", "c": "1", "lambda": "0/0"},
        },
    ],
)
def test_main_rejects_bad_field_values(tmp_path, capsys, doc):
    out = tmp_path / "out"
    code = cli.main(["--config", _write_config(tmp_path, doc), "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_main_rejects_unknown_tolerance_flag(tmp_path, capsys):
    config = _write_config(tmp_path, {"command": "check", "tolerances": {"llc": 0.1}})
    out = tmp_path / "out"
    assert cli.main(["--config", config, "--out", str(out), "--tol", "lip=0"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: unknown config key 'tolerances.lip'; check reads in tolerances: hlc, llc, mlc"]
    assert not out.exists()


@pytest.mark.parametrize("flag", ["llc=nan", "llc=inf", "llc=-inf"])
def test_main_rejects_non_finite_tolerance_flag(tmp_path, capsys, flag):
    config = _write_config(tmp_path, {"command": "check"})
    out = tmp_path / "out"
    assert cli.main(["--config", config, "--out", str(out), "--tol", flag]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: tolerances.llc must be a finite number")
    assert not out.exists()


def test_main_check_exits_2_when_llc_judges_no_sample(tmp_path, capsys):
    doc = {"command": "check", "hamiltonian": {"name": "neg_quad", "H": "-p^2"}}
    out = tmp_path / "out"
    assert cli.main(["--config", _write_config(tmp_path, doc), "--out", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL llc: worst_margin=-inf (fail)" in lines


@pytest.mark.parametrize("H", ["p", "3*p - 1"])
def test_main_check_passes_on_a_hamiltonian_affine_in_p(tmp_path, capsys, H):
    # H = a p + b is represented by f = a, l = -b; its numeric Lagrangian
    # domain is the one point a, which rounding must not invert
    doc = {"command": "check", "hamiltonian": {"name": "affine", "H": H}}
    out = tmp_path / "out"
    assert cli.main(["--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    report = json.loads((out / "check_affine_0.json").read_text())
    assert [r["verdict"] for r in report["reports"]] == ["pass"] * 3
    assert capsys.readouterr().err == ""


def test_main_definition_without_c(tmp_path, capsys):
    # noncompact builds take the v-window from the H slice; compact ones need c
    doc = {
        "command": "represent",
        "hamiltonian": {"name": "quad", "H": "p^2/2 - abs(x)"},
        "grids": {"p_count": 801, "v_count": 201, "a_plan": {"n_box": 6, "n_radii": 3, "n_angles": 12}},
    }
    out = tmp_path / "noncompact"
    assert cli.main(["--config", _write_config(tmp_path, doc), "--out", str(out), "--quiet"]) in (0, 2)
    assert (out / "represent_quad_0.csv").exists() and (out / "represent_quad_0.json").exists()
    capsys.readouterr()
    compact = _write_config(tmp_path, dict(doc, kind="compact"), "compact.json")
    assert cli.main(["--config", compact, "--out", str(tmp_path / "compact"), "--quiet"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_main_constant_summand(tmp_path, capsys):
    # a summand without a variable is a constant shift of H
    doc = {"command": "conjugate", "hamiltonian": "ex_2_2", "summand": "0.1"}
    out = tmp_path / "out"
    assert cli.main(["--config", _write_config(tmp_path, doc), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "conjugate_ex_2_2_0.json").read_text())
    assert [r["verdict"] for r in report["reports"] if r["check"] == "episum_identity"] == ["pass"]
    assert capsys.readouterr().err == ""


def test_main_constant_hamiltonian(tmp_path, capsys):
    # H = 1 has L = -1 at v = 0 and +inf elsewhere
    doc = {
        "command": "represent",
        "hamiltonian": {"name": "one", "H": "1"},
        "grids": {"p_count": 801, "v_count": 201, "a_plan": {"n_box": 6, "n_radii": 3, "n_angles": 12}},
    }
    out = tmp_path / "out"
    assert cli.main(["--config", _write_config(tmp_path, doc), "--out", str(out), "--quiet"]) == 0
    assert (out / "represent_one_0.csv").exists() and (out / "represent_one_0.json").exists()
    assert capsys.readouterr().err == ""


def test_main_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "hamrep" in capsys.readouterr().out


def test_main_conjugate_artifacts(tmp_path, capsys):
    config = _write_config(tmp_path, {"command": "conjugate", "hamiltonian": "ex_2_2"})
    out = tmp_path / "artifacts"
    code = cli.main(["--config", config, "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured and "wrote" in captured
    csv_path = out / "conjugate_ex_2_2_0.csv"
    json_path = out / "conjugate_ex_2_2_0.json"
    meta_path = out / "conjugate_ex_2_2_0_meta.json"
    assert csv_path.exists() and json_path.exists() and meta_path.exists()
    first = csv_path.read_text().split("\n", 1)[0]
    assert first == "hamiltonian,t,x,v,L_numeric,L_oracle,abs_err"
    payload = json.loads(json_path.read_text())
    assert payload["schema"] == 1
    assert payload["reports"][0]["check"] == "conjugate_oracle_match[ex_2_2]"
    meta = json.loads(meta_path.read_text())
    assert meta["artifacts"] == [csv_path.name, json_path.name]


def test_main_seed_flag_changes_stem(tmp_path, capsys):
    config = _write_config(tmp_path, {"command": "conjugate", "hamiltonian": "ex_2_1"})
    out = tmp_path / "seeded"
    assert cli.main(["--config", config, "--out", str(out), "--seed", "5", "--quiet"]) == 0
    assert (out / "conjugate_ex_2_1_5.csv").exists()
    assert capsys.readouterr().out == ""


def test_main_tol_flag_forces_failure(tmp_path, capsys):
    config = _write_config(tmp_path, {"command": "conjugate", "hamiltonian": "ex_2_2"})
    out = tmp_path / "strict"
    code = cli.main(["--config", config, "--out", str(out), "--tol", "abs_err=1e-15", "--quiet"])
    assert code == 2
    capsys.readouterr()


def test_main_zoo_list(tmp_path, capsys):
    config = _write_config(tmp_path, {"command": "zoo-list"})
    out = tmp_path / "listing"
    assert cli.main(["--config", config, "--out", str(out), "--quiet"]) == 0
    body = (out / "zoo-list_all_0.csv").read_text()
    for name in ("ex_2_1", "abs_p", "hat_rep_ex_2_1", "ex_2_2_lambda"):
        assert name in body
    payload = json.loads((out / "zoo-list_all_0.json").read_text())
    assert payload["triples"] == ["circle_rep_ex_2_2", "family_p_abs", "hat_rep_ex_2_1"]
    capsys.readouterr()


def test_rerun_is_byte_identical(tmp_path, capsys):
    config = _write_config(tmp_path, {"command": "conjugate", "hamiltonian": "ex_2_6"})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--config", config, "--out", str(out_a), "--quiet"]) == 0
    assert cli.main(["--config", config, "--out", str(out_b), "--quiet"]) == 0
    for stem in ("conjugate_ex_2_6_0.csv", "conjugate_ex_2_6_0.json"):
        assert (out_a / stem).read_bytes() == (out_b / stem).read_bytes()
    capsys.readouterr()


# ------------------------------------------------------ key table vs README


def _readme_key_table() -> dict[str, list[str]]:
    text = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Config reference", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [c.strip() for c in line.strip().strip("|").split(" | ")]
            rows[cells[0].strip("`")] = cells[1:]
    return rows


def _config_default(key: str):
    group, _, name = key.rpartition(".")
    owner = {"": cli.RunConfig, "grids": GridPolicy, "window": Window, "grids.a_plan": APlan}[group]
    field = {f.name: f for f in dataclasses.fields(owner)}[name]
    if field.default is not dataclasses.MISSING:
        return field.default
    return field.default_factory() if field.default_factory is not dataclasses.MISSING else "required"


def test_readme_lists_every_key_with_its_default_bounds_and_readers():
    rows = _readme_key_table()
    assert set(rows) == set(cli._KEYS)
    for key, (_, bounds, commands) in cli._KEYS.items():
        default, value, read_by = rows[key]
        assert read_by.split(", ") == (["all"] if commands == cli.COMMANDS else list(commands)), key
        for bound in bounds:
            if isinstance(bound, int) and not isinstance(bound, bool):
                assert str(bound) in value, key
        if key.startswith("tolerances."):
            want = TOLERANCES[key.split(".", 1)[1]]
            assert default.startswith("derived") if want is None else float(default.strip("`")) == want, key
        else:
            want = _config_default(key)
            words = {"-": None, "required": "required"}
            got = words[default] if default in words else json.loads(default.strip("`"))
            assert (list(want) if isinstance(want, tuple) else want) == got, key


# ----------------------------------------------------------- parse fuzz

_JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=10**6)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(
        ["ex_2_1", "all", "compact", "both", "hat_rep_ex_2_1", "ex_2_6_absx", "abs(p)", "-" * 3000 + "p"]
    )
    | st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# every table key but "command" (drawn on its own), plus misspelt keys and
# leaf values where an object belongs
_FUZZ_KEYS = st.sampled_from(
    [k for k in cli._KEYS if k != "command"]
    + ["bogus", "grids.v_cout", "window.x_rnge", "grids.a_plan.nbox", "tolerances.lip", "window", "grids"]
)
_TOL_NAMES = st.sampled_from([*dict.fromkeys(n for names in cli._TOLERANCES.values() for n in names), "lip"])


def _nest(command: str, flat: dict) -> dict:
    """The document holding each dotted key of `flat` at its depth."""
    doc: dict = {"command": command}
    for key, value in flat.items():
        *path, leaf = key.split(".")
        node = doc
        for part in path:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[leaf] = value
    return doc


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.builds(
        _nest,
        st.sampled_from([*cli.COMMANDS, "fourier", None, ["check"]]),
        st.dictionaries(_FUZZ_KEYS, _JUNK, max_size=5),
    ),
    st.dictionaries(_TOL_NAMES, st.floats(), max_size=2),
)
def test_fuzzed_documents_parse_or_fail_cleanly(doc, tols):
    try:
        cfg = cli.parse_config(doc, tols=tols)
    except ConfigError:
        pass
    else:
        assert isinstance(cfg, cli.RunConfig)
        return
    # a rejected document never reaches the runner or the output directory
    with tempfile.TemporaryDirectory() as tmp:
        config, out = pathlib.Path(tmp) / "run.json", pathlib.Path(tmp) / "out"
        config.write_text(json.dumps(doc), encoding="utf-8")
        flags = [arg for name, value in tols.items() for arg in ("--tol", f"{name}={value!r}")]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(config), "--out", str(out), "--quiet", *flags])
        lines = stderr.getvalue().strip().splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), (doc, lines)
        assert not out.exists()
