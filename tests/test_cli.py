import json
import pathlib

import pytest

from hamrep import cli
from hamrep.errors import ConfigError

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
    assert (cfg.v_count, cfg.p_count) == (601, 10001)
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
    assert cfg.tol("abs_err", 1e-2) == 0.25


@pytest.mark.parametrize(
    "doc",
    [
        {"command": "fourier"},
        {"command": "conjugate", "bogus": 1},
        {"command": "conjugate", "window": {"t_range": [1.0, 0.0]}},
        {"command": "conjugate", "window": {"x_range": [0.0]}},
        {"command": "conjugate", "window": "narrow"},
        {"command": "conjugate", "grids": {"v_count": 32}},
        {"command": "conjugate", "grids": {"p_count": True}},
        {"command": "conjugate", "grids": {"a_plan": {"n_box": 5}}},
        {"command": "conjugate", "grids": {"a_plan": {"n_angles": 4}}},
        {"command": "conjugate", "grids": {"a_plan": {"box_half": 0.0}}},
        {"command": "conjugate", "seed": -1},
        {"command": "conjugate", "seed": True},
        {"command": "conjugate", "tolerances": {"abs_err": "tight"}},
        {"command": "check", "kind": "both"},
        {"command": "represent", "kind": "inflated"},
        {"command": "stability", "family": "ex_9_9", "fixed_t": 0.5},
        {"command": "conjugate", "fixed_t": 2.0},
        {"command": "verify", "triple": "all"},
        {"command": "verify", "triple": "mystery_rep"},
        {"command": "conjugate", "hamiltonian": ["ex_2_1", "ex_2_2"]},
        {"command": "check", "hamiltonian": []},
        {"command": "check", "hamiltonian": ["ex_2_1", 7]},
        {"command": "conjugate", "hamiltonian": 42},
        {"command": "check", "summand": "abs(p)"},
        {"command": "conjugate", "hamiltonian": "all", "summand": "abs(p)"},
        {"command": "conjugate", "summand": "while True: p"},
    ],
)
def test_parse_rejects_bad_configs(doc):
    with pytest.raises(ConfigError):
        cli.parse_config(doc)


def test_parse_accepts_gated_shapes():
    assert _parse(command="represent", kind="both").kind == "both"
    assert _parse(command="verify", hamiltonian=["ex_2_1", "ex_2_2"]).hamiltonian == [
        "ex_2_1",
        "ex_2_2",
    ]
    assert _parse(command="compactness", triple="all").triple == "all"
    assert _parse(command="stability", family="all").family == "all"
    assert _parse(command="conjugate", summand="0.5*abs(p) + 0.1").summand == "0.5*abs(p) + 0.1"


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
        {"command": "conjugate", "geometry": 0},
        {"command": "check", "tolerances": {"hcl": 1e-30}},
        {"command": "verify", "tolerances": {"reconstruction": 0.1}},
        {"command": "zoo-list", "tolerances": {"abs_err": 0.1}},
        {"command": "check", "tolerances": [1]},
        {"command": "compactness", "triple": ["x"]},
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
    assert err == ["error: unknown tolerance name(s) for check: lip; valid: hlc, llc, mlc"]
    assert not out.exists()


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
