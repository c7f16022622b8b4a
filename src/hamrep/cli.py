"""Batch front door for the toolkit.

Runs conjugation sweeps, continuity checks, representation builds and
audits, convexification pipelines, and stability experiments from one JSON
config, writing deterministic CSV/JSON artifacts plus a timestamped
metadata sidecar. Exit status: 0 when every check passes (free-text
verdicts count as informational, not failures), 2 when any check fails,
1 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import pathlib
import re
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import compactness, convex_geom as cg, stability, zoo
from .builder import (
    APlan,
    GridPolicy,
    Window,
    build,
    induced_H,
    sandwich_check,
    verify_triple,
)
from .errors import ConfigError, HamrepError, UnknownName
from .exprs import compile_expr, compile_hamiltonian
from .fenchel import epi_sum
from .report import TOLERANCES, CheckReport, Worst, reports_to_json
from .sampling import SamplePlan

COMMANDS = ("conjugate", "check", "represent", "verify", "compactness", "stability", "zoo-list")

# largest v_count/p_count a config may ask for: twice the production p-grid
GRID_CAP = 20_001

# largest continuity radius R: every builtin's HLC, LLC and MLC margins stay
# finite there, while at R = 1e300 ex_2_2's MLC conjugates overflow to +inf
R_CAP = 1e6

# the tolerances each command reads; their defaults are `report.TOLERANCES`
_TRIPLE_TOLERANCES = ("l_lower", "lip_slack", "image_gap")
_TOLERANCES = {
    "conjugate": ("abs_err", "margin", "episum"),
    "check": ("hlc", "llc", "mlc"),
    "represent": ("reconstruction", "soundness", *_TRIPLE_TOLERANCES, "sandwich"),
    "verify": _TRIPLE_TOLERANCES,
    "compactness": ("lemma41", "blc", "blc_threshold"),
    "stability": ("bound_slack", "decay_ratio", "epigraph_abs"),
    "zoo-list": (),
}

# every constructed triple's epigraph cap, as represent reports it
_CAP_NOTE = "power-of-two ladder over max(|a_eta|, min L) + 3*(2 d) + 1"

_TRIPLES = {
    "hat_rep_ex_2_1": zoo.hat_rep_ex_2_1,
    "circle_rep_ex_2_2": zoo.circle_rep_ex_2_2,
    "family_p_abs": zoo.family_p_abs,
}


@dataclasses.dataclass
class RunConfig:
    """Validated run description assembled from the JSON config and flags."""

    command: str
    hamiltonian: str | dict | list = "ex_2_2"
    window: Window = dataclasses.field(default_factory=Window)
    grids: GridPolicy = dataclasses.field(default_factory=GridPolicy)
    a_plan: APlan = dataclasses.field(default_factory=APlan)
    seed: int = 0
    output_dir: str = "out"
    tolerances: dict = dataclasses.field(default_factory=dict)
    kind: str = "noncompact"
    family: str | None = None
    fixed_t: float | None = None
    triple: str | None = None
    R: float = 2.0
    epigraph_check: bool = True
    summand: str | None = None
    geometry: bool = False

    def tol(self, name: str) -> float | None:
        """The configured tolerance `name`, else its `report.TOLERANCES` default."""
        return self.tolerances.get(name, TOLERANCES[name])

    def plan(self) -> SamplePlan:
        return SamplePlan(seed=self.seed)


def _range_pair(raw, name: str) -> tuple[float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError(f"{name} must be a two-number list [lo, hi]")
    lo, hi = _float_field(raw[0], f"{name}[0]"), _float_field(raw[1], f"{name}[1]")
    if hi <= lo:
        raise ConfigError(f"{name} must be a nonempty finite range, got [{lo}, {hi}]")
    return lo, hi


def _int_field(raw, name: str, minimum: int, maximum: int | None = None) -> int:
    if isinstance(raw, int) and not isinstance(raw, bool) and minimum <= raw:
        if maximum is None or raw <= maximum:
            return raw
    bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
    raise ConfigError(f"{name} must be an integer {bound}, got {raw!r}")


def _float_field(raw, name: str, positive: bool = False, maximum: float | None = None) -> float:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            value = float(raw)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if math.isfinite(value) and (value > 0.0 or not positive) and (maximum is None or value <= maximum):
            return value
    bound = "" if maximum is None else f" <= {maximum:g}"
    raise ConfigError(f"{name} must be a finite{' positive' if positive else ''} number{bound}, got {raw!r}")


def _bool_field(raw, name: str) -> bool:
    if not isinstance(raw, bool):
        raise ConfigError(f"{name} must be true or false, got {raw!r}")
    return raw


def _str_field(raw, name: str, choices: tuple[str, ...] | None = None) -> str:
    if isinstance(raw, str) and raw and (choices is None or raw in choices):
        return raw
    if choices is None:
        raise ConfigError(f"{name} must be a nonempty string, got {raw!r}")
    raise ConfigError(f"{name} must be one of {', '.join(choices)}; got {raw!r}")


def _hamiltonian_field(raw, name: str) -> str | list | dict:
    if isinstance(raw, list) and raw and all(isinstance(n, str) for n in raw):
        return raw
    if isinstance(raw, dict) or isinstance(raw, str) and raw:
        return raw
    raise ConfigError(f'{name} must be a builtin name, "all", a name list, or a definition object; got {raw!r}')


# the commands that build triples from a Hamiltonian, and those that sample (t, x)
_BUILDERS = ("represent", "verify")
_WINDOWED = ("conjugate", "represent", "verify", "compactness", "stability")

# every config key, dotted below an object: (reader, its bounds, the commands
# that read the key); a key the running command does not read is rejected
_KEYS = {
    "command": (_str_field, (COMMANDS,), COMMANDS),
    "hamiltonian": (_hamiltonian_field, (), ("conjugate", "check", "represent", "verify", "compactness")),
    "window.t_range": (_range_pair, (), _WINDOWED),
    "window.x_range": (_range_pair, (), _WINDOWED),
    "window.p_range": (_range_pair, (), ("represent", "stability")),
    "grids.v_count": (_int_field, (33, GRID_CAP), ("conjugate", "check", "represent", "verify", "stability")),
    "grids.p_count": (
        _int_field,
        (33, GRID_CAP),
        ("conjugate", "check", "represent", "verify", "compactness", "stability"),
    ),
    "grids.a_plan.n_box": (_int_field, (6,), _BUILDERS),
    "grids.a_plan.n_radii": (_int_field, (2,), _BUILDERS),
    "grids.a_plan.n_angles": (_int_field, (8,), _BUILDERS),
    "seed": (_int_field, (0,), COMMANDS),
    "output_dir": (_str_field, (), COMMANDS),
    "kind": (_str_field, (("noncompact", "compact", "both"),), ("represent", "verify", "stability")),
    "family": (_str_field, ((*stability.family_names(), "all"),), ("stability",)),
    "fixed_t": (_float_field, (), ("stability",)),
    "triple": (_str_field, ((*_TRIPLES, "all"),), ("verify", "compactness")),
    "R": (_float_field, (True, R_CAP), ("check",)),
    "epigraph_check": (_bool_field, (), ("stability",)),
    "summand": (_str_field, (), ("conjugate",)),
    "geometry": (_bool_field, (), ("check",)),
    **{
        f"tolerances.{name}": (_float_field, (), tuple(c for c in COMMANDS if name in _TOLERANCES[c]))
        for name in dict.fromkeys(n for names in _TOLERANCES.values() for n in names)
    },
}


def _objects() -> dict[str, tuple[str, ...]]:
    """Each object holding nested keys, with the commands that read a key in it."""
    found: dict[str, set[str]] = {}
    for key, (_, _, commands) in _KEYS.items():
        parts = key.split(".")
        for depth in range(1, len(parts)):
            found.setdefault(".".join(parts[:depth]), set()).update(commands)
    return {name: tuple(c for c in COMMANDS if c in commands) for name, commands in found.items()}


_OBJECTS = _objects()


def _walk(doc: dict, prefix: str, command: str, values: dict) -> None:
    """Read each key of the object at `prefix` into `values`, by dotted name."""
    for key, raw in doc.items():
        name = f"{prefix}{key}"
        if "." in str(key) or name not in _OBJECTS and name not in _KEYS:
            valid = dict.fromkeys(
                k[len(prefix) :].partition(".")[0]
                for k, (_, _, cmds) in _KEYS.items()
                if k.startswith(prefix) and command in cmds
            )
            where = f" in {prefix[:-1]}" if prefix else ""
            raise ConfigError(f"unknown config key {name!r}; {command} reads{where}: {', '.join(valid) or 'none'}")
        commands = _OBJECTS[name] if name in _OBJECTS else _KEYS[name][2]
        if command not in commands:
            raise ConfigError(f"config key {name} is not read by {command}, only by {', '.join(commands)}")
        if name in _OBJECTS:
            if not isinstance(raw, dict):
                raise ConfigError(f'"{name}" must be an object')
            _walk(raw, f"{name}.", command, values)
        else:
            reader, bounds, _ = _KEYS[name]
            values[name] = reader(raw, name, *bounds)


def parse_config(doc: dict, seed: int | None = None, out: str | None = None, tols: dict | None = None) -> RunConfig:
    """Validate the JSON document plus flag overrides into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    command = _str_field(doc.get("command"), "command", COMMANDS)
    values: dict = {}
    _walk(doc, "", command, values)
    _walk(tols or {}, "tolerances.", command, values)
    if seed is not None:
        values["seed"] = _int_field(seed, "seed", 0)
    if out is not None:
        values["output_dir"] = _str_field(out, "output_dir")
    groups: dict[str, dict] = {"": {}, **{name: {} for name in _OBJECTS}}
    for name, value in values.items():
        group, _, field = name.rpartition(".")
        groups[group][field] = value
    cfg = RunConfig(
        **groups[""],
        window=Window(**groups["window"]),
        grids=GridPolicy(**groups["grids"]),
        a_plan=APlan(**groups["grids.a_plan"]),
        tolerances=groups["tolerances"],
    )

    # rules that tie one key to another or to the command
    plan = cfg.a_plan
    if plan.n_box * plan.n_box < 33 or plan.n_radii * plan.n_angles < 33:
        raise ConfigError("a_plan must keep at least 33 samples per control family")
    if cfg.kind == "both" and command not in _BUILDERS:
        raise ConfigError(f'kind "both" is only valid for represent and verify, not {command}')
    if cfg.fixed_t is not None and not cfg.window.t_range[0] <= cfg.fixed_t <= cfg.window.t_range[1]:
        raise ConfigError(f"fixed_t={cfg.fixed_t} lies outside window.t_range")
    if cfg.triple == "all" and command != "compactness":
        raise ConfigError('triple "all" is only valid for the compactness command')
    # keys the document sets that the chosen branch would ignore
    for key in values:
        grid = key.startswith("grids.") and cfg.triple != "all"
        if cfg.triple is not None and (key in ("hamiltonian", "kind") or grid):
            raise ConfigError(f'"{key}" has no effect next to a "triple": {command} runs the named triple')
    for key in ("kind", "fixed_t"):
        if cfg.family == "all" and key in values:
            raise ConfigError(f'"{key}" has no effect with family "all": the suite sets each family\'s own')
    if isinstance(cfg.hamiltonian, list) and command not in ("check", *_BUILDERS):
        raise ConfigError('a "hamiltonian" list of builtin names is only valid for check/represent/verify')
    if cfg.summand is not None:
        if cfg.hamiltonian == "all":
            raise ConfigError('"summand" needs a single hamiltonian, not "all"')
        compile_expr(cfg.summand, ("t", "x", "p"))
    return cfg


def _resolve_specs(cfg: RunConfig, allow_all: bool) -> list:
    ham = cfg.hamiltonian
    if isinstance(ham, dict):
        return [compile_hamiltonian(ham)]
    if isinstance(ham, list):
        return [zoo.builtin(n) for n in ham]
    if ham == "all":
        if not allow_all:
            raise ConfigError(f'"all" is not valid for command {cfg.command!r}')
        return [zoo.builtin(n) for n in zoo.names()]
    return [zoo.builtin(ham)]


def _ham_tag(cfg: RunConfig) -> str:
    if cfg.command == "zoo-list":
        raw = "all"
    elif cfg.command == "stability":
        raw = cfg.family or "family"
    elif cfg.triple is not None:
        raw = cfg.triple
    elif isinstance(cfg.hamiltonian, dict):
        raw = str(cfg.hamiltonian.get("name", "custom"))
    elif isinstance(cfg.hamiltonian, list):
        raw = "+".join(cfg.hamiltonian)
    else:
        raw = cfg.hamiltonian
    return re.sub(r"[^A-Za-z0-9_-]+", "_", raw)


def _fmt_cell(v) -> str:
    # str spells a float or numpy float64 as repr(float(v)) does; comma is
    # the separator, so free text swaps it for ";" to stay one cell
    return str(v).replace(",", ";")


def _write_csv(path: pathlib.Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


def _tag_reports(reports: list[CheckReport], tag: str) -> list[CheckReport]:
    return [dataclasses.replace(r, check=f"{r.check}[{tag}]") for r in reports]


def _x_values(cfg: RunConfig, count: int = 5) -> np.ndarray:
    lo, hi = cfg.window.x_range
    return np.linspace(lo, hi, count)


def _mid(rng: tuple[float, float]) -> float:
    return 0.5 * (rng[0] + rng[1])


def _run_conjugate(cfg: RunConfig):
    specs = _resolve_specs(cfg, allow_all=True)
    abs_tol = cfg.tol("abs_err")
    margin = cfg.tol("margin")
    t = _mid(cfg.window.t_range)
    reports: list[CheckReport] = []
    rows: list[tuple] = []
    for spec in specs:
        # without oracle_L the slices' L is the numeric conjugate
        numeric = dataclasses.replace(spec, oracle_L=None).slices(cfg.grids)
        # every x row's probes, queried at once with one x per probe
        probes = [zoo.oracle_probe_values(numeric, t, float(x), margin=margin) for x in _x_values(cfg)]
        xs = np.repeat(_x_values(cfg), [len(vs) for vs in probes])
        vs = np.concatenate(probes)
        ln = np.asarray(numeric.values(t, xs, vs), dtype=float)
        cols = [[spec.name] * len(vs), [t] * len(vs), xs.tolist(), vs.tolist(), ln.tolist()]
        if spec.oracle_L is None:
            rows.extend(zip(*cols, [""] * len(vs), [""] * len(vs)))
            reports.append(
                CheckReport(f"conjugate_numeric[{spec.name}]", 0.0, "no closed form on file", [])
            )
            continue
        lo_vals = np.asarray(spec.oracle_L(t, xs, vs), dtype=float)
        both = np.isfinite(ln) & np.isfinite(lo_vals)
        err = np.where(both, np.abs(ln - lo_vals), np.where(np.isfinite(ln) == np.isfinite(lo_vals), 0.0, np.inf))
        rows.extend(zip(*cols, lo_vals.tolist(), err.tolist()))
        if spec.alt_oracle_L is not None:
            worst = float(np.max(err))
            alt_vals = np.asarray(spec.alt_oracle_L(t, xs, vs), dtype=float)
            worst_alt = float(np.max(np.abs(ln - alt_vals)))
            prim_ok = worst <= abs_tol
            alt_ok = worst_alt <= abs_tol
            if prim_ok == alt_ok:
                verdict = "fail"
            else:
                verdict = "matches derived form" if prim_ok else "matches printed form"
            reports.append(
                CheckReport(
                    f"conjugate_form_selection[{spec.name}]",
                    float(min(worst, worst_alt)),
                    verdict,
                    [{"err_derived": float(worst), "err_printed": float(worst_alt)}],
                )
            )
        else:
            match = Worst(f"conjugate_oracle_match[{spec.name}]")
            match.see(err, {"abs_tol": abs_tol, "margin": margin})
            reports.append(match.report(abs_tol))
    if cfg.summand is not None:
        reports.append(_episum_identity(cfg, specs[0], t, rows))
    header = ["hamiltonian", "t", "x", "v", "L_numeric", "L_oracle", "abs_err"]
    return reports, header, rows, {}


def _episum_identity(cfg: RunConfig, spec, t: float, rows: list) -> CheckReport:
    """Conjugation turns sums into epigraphical sums: compare the numeric
    conjugate of H + summand against the epi-sum of the two conjugates,
    each restricted to its edge-slope trust interval, on the slice
    service's v-window of the sum. The base's c(t) bounds neither the
    sum's domain nor the summand's, so the derived specs drop it and the
    half-width is read off the sum's own H sample."""
    x = _mid(cfg.window.x_range)
    tol = cfg.tol("episum")
    h2 = compile_expr(cfg.summand, ("t", "x", "p"))

    def h_sum(t, x, p):
        return np.asarray(spec.eval(t, x, p), dtype=float) + np.asarray(h2(t, x, p), dtype=float)

    modulus = dataclasses.replace(spec.modulus, c=None)
    slices = [
        dataclasses.replace(spec, eval=h, modulus=modulus, oracle_L=None, oracle_dom=None).slices(cfg.grids)
        for h in (h_sum, spec.eval, h2)
    ]
    width = slices[0].halfwidth(t, x)
    lhs, f1, f2 = (sl.on_grid(t, x, width) for sl in slices)
    rhs = epi_sum(f1, f2)
    both = np.isfinite(lhs.values) & np.isfinite(rhs.values)
    mismatch = int(np.sum(np.isfinite(lhs.values) != np.isfinite(rhs.values)))
    worst = float(np.max(np.abs(lhs.values[both] - rhs.values[both]))) if np.any(both) else np.inf
    # a one-node skirt per side covers the trust-window vs sum-window seam
    verdict = "pass" if worst <= tol and mismatch <= 2 else "fail"
    vs = lhs.grid.nodes()
    for v, a, b in zip(vs[both], lhs.values[both], rhs.values[both]):
        rows.append((f"{spec.name}+summand", t, x, float(v), float(a), float(b), float(abs(a - b))))
    return CheckReport(
        "episum_identity",
        worst,
        verdict,
        [{"summand": cfg.summand, "inf_mismatch_nodes": mismatch, "tol": tol}],
    )


def _run_check(cfg: RunConfig):
    specs = _resolve_specs(cfg, allow_all=True)
    plan = cfg.plan()
    reports: list[CheckReport] = []
    for spec in specs:
        got = [
            zoo.check_HLC(spec, cfg.R, samples=plan, tol=cfg.tol("hlc")),
            zoo.check_LLC(spec, cfg.R, samples=plan, tol=cfg.tol("llc"), grids=cfg.grids),
            zoo.check_MLC(spec, cfg.R, samples=plan, grids=cfg.grids, tol=cfg.tol("mlc")),
        ]
        reports.extend(_tag_reports(got, spec.name) if len(specs) > 1 else got)
    if cfg.geometry:
        reports.extend(cg.geometry_suite(plan))
    header = ["check", "worst_margin", "verdict"]
    rows = [(r.check, float(r.worst_margin), r.verdict) for r in reports]
    return reports, header, rows, {}


def _kinds(cfg: RunConfig) -> tuple[str, ...]:
    return ("noncompact", "compact") if cfg.kind == "both" else (cfg.kind,)


def _verify(cfg: RunConfig, triple) -> list[CheckReport]:
    return verify_triple(
        triple,
        cfg.window,
        plan=cfg.plan(),
        l_tol=cfg.tol("l_lower"),
        lip_slack=cfg.tol("lip_slack"),
        image_gap_tol=cfg.tol("image_gap"),
    )


def _run_represent(cfg: RunConfig):
    specs = _resolve_specs(cfg, allow_all=False)
    multi = len(specs) > 1 or cfg.kind == "both"
    recon_tol = cfg.tol("reconstruction")
    sound_tol = cfg.tol("soundness")
    t = _mid(cfg.window.t_range)
    ps = np.linspace(cfg.window.p_range[0], cfg.window.p_range[1], 41)
    rows: list[tuple] = []
    reports: list[CheckReport] = []
    extra: dict = {"kind": cfg.kind}
    for spec in specs:
        for kind in _kinds(cfg):
            triple = build(kind, spec, cfg.grids, cfg.a_plan)
            rec_err = Worst("reconstruction_sup_error")
            sound = Worst("reconstruction_soundness")
            for x in _x_values(cfg):
                Hp = np.asarray(spec.eval(t, float(x), ps), dtype=float)
                rec = induced_H(triple, t, float(x), ps)
                err = np.abs(rec - Hp)
                # the row's np.max, not its first maximal entry, whose zero may carry the other sign
                rec_err.see(float(np.max(err)), {"tol": recon_tol})
                sound.see(float(np.max(rec - Hp)), {"tol": sound_tol})
                for p, hv, rv, e in zip(ps, Hp, rec, err):
                    rows.append((spec.name, kind, t, float(x), float(p), float(hv), float(rv), float(e)))
            local = [rec_err.report(recon_tol), sound.report(sound_tol)] + _verify(cfg, triple)
            if kind == "compact":
                for x in _x_values(cfg, 3):
                    local.append(sandwich_check(triple, t, float(x), tol=cfg.tol("sandwich")))
            reports.extend(_tag_reports(local, f"{spec.name}:{kind}") if multi else local)
            extra[f"caps[{spec.name}:{kind}]"] = _CAP_NOTE
    header = ["hamiltonian", "kind", "t", "x", "p", "H", "H_reconstructed", "abs_err"]
    return reports, header, rows, extra


def _run_verify(cfg: RunConfig):
    jobs: list[tuple[str, object]] = []
    if cfg.triple is not None:
        jobs.append((cfg.triple, _TRIPLES[cfg.triple]()))
    else:
        for spec in _resolve_specs(cfg, allow_all=False):
            for kind in _kinds(cfg):
                jobs.append((f"{spec.name}:{kind}", build(kind, spec, cfg.grids, cfg.a_plan)))
    reports: list[CheckReport] = []
    for tag, triple in jobs:
        local = _verify(cfg, triple)
        reports.extend(_tag_reports(local, tag) if len(jobs) > 1 else local)
    header = ["check", "worst_margin", "verdict"]
    rows = [(r.check, float(r.worst_margin), r.verdict) for r in reports]
    return reports, header, rows, {}


# aggregate compactness program: lambda-extraction on named triples plus
# boundedness verdicts on the spec side, one tagged report stream
_BLC_VERDICT_SPECS = ("ex_2_2", "ex_2_3", "ex_2_4")
_CERTIFIED_TRIPLES = ("hat_rep_ex_2_1", "circle_rep_ex_2_2")


def _blc_probe(cfg: RunConfig, spec) -> CheckReport:
    return compactness.detect_blc_failure(
        spec,
        window=cfg.window,
        threshold=cfg.tol("blc_threshold"),
        plan=cfg.plan(),
        grids=cfg.grids,
    )


def _triple_audit(cfg: RunConfig, base, certify: bool):
    """Lemma 4.1 on a named triple and, with certify, the lambda bound
    extracted from its convexification with that bound's certificate."""
    reports = [compactness.lemma41_check(base, cfg.plan(), cfg.window, tol=cfg.tol("lemma41"))]
    if not certify:
        return reports, None
    lam = compactness.extract_lambda(compactness.convexify(base), cfg.plan(), cfg.window, tol=cfg.tol("blc"))
    return reports + [lam.certification], lam


def _lambda_rows(cfg: RunConfig, lam, count: int, prefix: tuple = ()) -> list[tuple]:
    (t_lo, t_hi), (x_lo, x_hi) = cfg.window.t_range, cfg.window.x_range
    return [
        prefix + (float(t), float(x), float(lam.eval(float(t), float(x))))
        for t in np.linspace(t_lo, t_hi, count)
        for x in np.linspace(x_lo, x_hi, count)
    ]


def _run_compactness(cfg: RunConfig):
    if cfg.triple == "all":
        reports: list[CheckReport] = []
        rows: list[tuple] = []
        for name in sorted(_TRIPLES):
            local, lam = _triple_audit(cfg, _TRIPLES[name](), name in _CERTIFIED_TRIPLES)
            if lam is not None:
                rows.extend(_lambda_rows(cfg, lam, 3, (name,)))
            reports.extend(_tag_reports(local, name))
        for ham in _BLC_VERDICT_SPECS:
            reports.extend(_tag_reports([_blc_probe(cfg, zoo.builtin(ham))], ham))
        header = ["triple", "t", "x", "lambda"]
        return reports, header, rows, {}
    if cfg.triple is not None:
        reports, lam = _triple_audit(cfg, _TRIPLES[cfg.triple](), True)
        extra = {"lambda_note": lam.note, "triple": cfg.triple}
        return reports, ["t", "x", "lambda"], _lambda_rows(cfg, lam, 5), extra
    rep = _blc_probe(cfg, _resolve_specs(cfg, allow_all=False)[0])
    header = ["margin", "interior_sup"]
    rows = [
        (float(w["margin"]), float(w["sup"]))
        for w in rep.witnesses
        if isinstance(w, dict) and "margin" in w
    ]
    return [rep], header, rows, {"verdict": rep.verdict}


# aggregate stability program: the convergence families plus the
# zero-perturbation control, each with its natural builder and slab mode
_STABILITY_SUITE = (
    ("ex_2_1_sinx", "noncompact", None),
    ("ex_2_2_lambda", "compact", None),
    ("ex_2_6_absx", "noncompact", 0.5),
    ("ex_2_2_zero", "noncompact", None),
)


def _stability_single(cfg: RunConfig, name: str, kind: str, fixed_t: float | None):
    family = stability.named_family(name)
    rep = stability.representation_convergence(
        family,
        kind=kind,
        window=cfg.window,
        plan=cfg.plan(),
        grids=cfg.grids,
        bound_slack=cfg.tol("bound_slack"),
        fixed_t=fixed_t,
    )
    reports = [rep.decay_report(ratio=cfg.tol("decay_ratio")), rep.bound_report()]
    if name.endswith("_zero"):
        zero = Worst("zero_control_exact")
        for r in rep.rows:
            zero.see(r.sup_e_err, {"family": name})
        reports.append(zero.report(0.0))
    if cfg.epigraph_check:
        reports.append(
            stability.epigraph_limit_check(
                family,
                window=cfg.window,
                plan=cfg.plan(),
                grids=cfg.grids,
                abs_tol=cfg.tol("epigraph_abs"),
                ratio=cfg.tol("decay_ratio"),
            )
        )
    rows = [
        (
            name,
            r.i,
            float(r.sup_e_err),
            float(r.sup_f_err),
            float(r.sup_l_err),
            float(r.sup_hausdorff_EL),
        )
        for r in rep.rows
    ]
    return reports, rows, rep.kind


def _run_stability(cfg: RunConfig):
    if not cfg.family:
        raise ConfigError(f'stability needs a "family" name; know {stability.family_names()}')
    header = ["family", "i", "sup_e_err", "sup_f_err", "sup_l_err", "sup_hausdorff_EL"]
    if cfg.family == "all":
        reports: list[CheckReport] = []
        rows: list[tuple] = []
        for name, kind, fixed_t in _STABILITY_SUITE:
            local, local_rows, _ = _stability_single(cfg, name, kind, fixed_t)
            # decay and bound reports already carry the family in their name
            reports.extend(
                r if f"[{name}]" in r.check else _tag_reports([r], name)[0] for r in local
            )
            rows.extend(local_rows)
        return reports, header, rows, {"family": "all"}
    reports, rows, kind = _stability_single(cfg, cfg.family, cfg.kind, cfg.fixed_t)
    extra = {"family": cfg.family, "kind": kind, "fixed_t": cfg.fixed_t}
    return reports, header, rows, extra


def _run_zoo_list(cfg: RunConfig):
    rows: list[tuple] = []
    for name in zoo.names():
        spec = zoo.builtin(name)
        # H4 holds iff c(t) is given and BLC iff lambda is; H1-H3 and HLC are assumed
        held = {"BLC": spec.lambda_bound is not None, "H4": spec.modulus.c is not None}
        flags = "+".join(k for k in ("BLC", "H1", "H2", "H3", "H4", "HLC") if held.get(k, True))
        rows.append(("hamiltonian", name, flags, spec.notes))
    for name in sorted(_TRIPLES):
        rows.append(("triple", name, "", _TRIPLES[name]().provenance))
    for name in stability.family_names():
        rows.append(("family", name, "", ""))
    header = ["entry", "name", "flags", "notes"]
    extra = {
        "hamiltonians": zoo.names(),
        "triples": sorted(_TRIPLES),
        "families": stability.family_names(),
    }
    return [], header, rows, extra


_RUNNERS = {
    "conjugate": _run_conjugate,
    "check": _run_check,
    "represent": _run_represent,
    "verify": _run_verify,
    "compactness": _run_compactness,
    "stability": _run_stability,
    "zoo-list": _run_zoo_list,
}


def run(cfg: RunConfig, quiet: bool = False) -> int:
    """Execute one validated config: write artifacts, print check lines."""
    started = time.time()
    reports, header, rows, extra = _RUNNERS[cfg.command](cfg)
    out_dir = pathlib.Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{cfg.command}_{_ham_tag(cfg)}_{cfg.seed}"

    csv_path = out_dir / f"{stem}.csv"
    _write_csv(csv_path, header, rows)
    json_path = out_dir / f"{stem}.json"
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            reports_to_json(
                reports,
                command=cfg.command,
                hamiltonian=_ham_tag(cfg),
                seed=cfg.seed,
                **extra,
            )
        )
    meta_path = out_dir / f"{stem}_meta.json"
    meta = {
        "artifacts": [csv_path.name, json_path.name],
        "elapsed_seconds": round(time.time() - started, 3),
        "schema": 1,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with open(meta_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")

    if not quiet:
        for rep in reports:
            print(rep.line())
        print(f"wrote {csv_path} {json_path}")
    return 0 if all(r.passed for r in reports) else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hamrep",
        description="Convex Hamiltonian representation toolkit batch runner.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override one tolerance (repeatable)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress per-check output")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        tols = {}
        for item in args.tol:
            name, sep, value = item.partition("=")
            if not sep or not name:
                raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
            try:
                tols[name] = float(value)
            except ValueError:
                raise ConfigError(f"--tol {name}: {value!r} is not a number") from None
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config!r} is not valid JSON: {exc}") from exc
        cfg = parse_config(doc, seed=args.seed, out=args.out, tols=tols)
        return run(cfg, quiet=args.quiet)
    except (ConfigError, UnknownName) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HamrepError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
