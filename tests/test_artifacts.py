"""Byte-stable artifacts: every `configs/accept_*.json` and `zoo-list`, at
seeds 0 and 1000, run through `parse_config` + `run`, must write the CSV
and JSON whose sha256 (first 16 hex digits) and exit code the table in
`data/accept_artifacts.json` records.

Float bits can differ across numpy builds and the SIMD paths numpy
dispatches on, so the table also records the numpy version and those CPU
features, and the test skips, naming the difference, on another build. A
change that moves an artifact on purpose updates its rows; print the
current table with

    PYTHONPATH=src python tests/test_artifacts.py
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from hamrep import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
TABLE = pathlib.Path(__file__).parent / "data" / "accept_artifacts.json"
CONFIGS = {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in sorted(ROOT.glob("configs/accept_*.json"))}
CONFIGS["zoo-list"] = {"command": "zoo-list"}
SEEDS = (0, 1000)


def numpy_build() -> dict:
    """The numpy version and the CPU features its SIMD paths use here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    names = list(umath.__cpu_baseline__) + list(umath.__cpu_dispatch__)
    return {"numpy": np.__version__, "simd": sorted(f for f in names if umath.__cpu_features__.get(f))}


def artifact_rows(out_dir: pathlib.Path) -> dict:
    """{config: {seed: {"exit", "csv", "json"}}} for every config and seed."""
    rows: dict = {}
    for name, doc in CONFIGS.items():
        for seed in SEEDS:
            cfg = cli.parse_config(doc, seed=seed, out=str(out_dir / f"{name}_{seed}"))
            row = {"exit": cli.run(cfg, quiet=True)}
            for path in sorted(pathlib.Path(cfg.output_dir).iterdir()):
                if path.suffix == ".csv" or (path.suffix == ".json" and not path.stem.endswith("_meta")):
                    row[path.suffix[1:]] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
            rows.setdefault(name, {})[str(seed)] = row
    return rows


def test_accept_artifacts_match_the_table(tmp_path):
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    if table["build"] != numpy_build():
        pytest.skip(f"the table was written on {table['build']}, this is {numpy_build()}")
    got = artifact_rows(tmp_path)
    changed = sorted(
        f"{name}@{seed}: {key} {want[key]} -> {now.get(key)}"
        for name, seeds in table["rows"].items()
        for seed, want in seeds.items()
        for now in [got.get(name, {}).get(seed, {})]
        for key in want
        if now.get(key) != want[key]
    )
    assert changed == []
    assert got == table["rows"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {"build": numpy_build(), "rows": artifact_rows(pathlib.Path(tmp))}
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
