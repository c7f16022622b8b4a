"""hamrep benchmark: closed-loop workloads with a verdict gate and a traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload represent --seed 0 --seconds 40 --trace 0

One client runs the workload's config list through `hamrep.cli.parse_config`
and `hamrep.cli.run`, as `hamrep --config` does, and starts the next pass
only after the previous one finished. Passes repeat while another one fits
in `--seconds` (at least one runs). Every verdict, exit code and artifact
hash is checked; see `Gate`.

`--trace 0` reports the end-to-end metrics: the median pass time, the
median set-up time of fresh interpreters, and the peak resident set size.
Both times are read from the CPU clock of the process that does the work
(user + system seconds). A pass runs on one thread and does not wait, so on
a dedicated core this equals the elapsed time, which is printed as well. On
a virtual machine whose host is shared, the elapsed time also holds the
seconds the hypervisor gave the virtual CPU to other guests (steal time);
the CPU clock leaves those out.
`--trace 1` runs one untraced pass, then traced passes, and reports the
per-layer metrics of `tracer.LAYER_METRICS` (median over traced passes),
the tracing overhead, and the output-quality figures. The spans of a
traced run are written to `.bench_work/spans-<workload>-seed<seed>.npz`.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# One client, one thread: hamrep's own pool is off, and BLAS (used by the
# Steiner quadrature's matrix products) keeps to one thread. A second BLAS
# thread gave no speed-up on a 2-core box, but it made every time depend on
# the load of the other core. Set before numpy loads; probes inherit it.
os.environ.pop("HAMREP_THREADS", None)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # before and again after the passes

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
QUALITY = {"fail_ratio": "ratio", "recon_err": "1", "conj_err": "1"}
TRACE_EXTRA = {"trace.traced_wall_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s"}


class Gate:
    """Checks every config run of a workload against its pinned outcome.

    An op is one config run or one check verdict. A config run fails on an
    exception, an unexpected exit code, a report list of the wrong length,
    or CSV/JSON artifacts whose hash differs from an earlier run of the same
    config (same seed) in this process. A verdict fails when it differs
    from the pinned one.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.recon_err = 0.0
        self.conj_err = 0.0

    def _fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)

    def check(self, job: workloads.Job, key: str, code: int | None, out_dir: pathlib.Path) -> None:
        expected = job.expected()
        self.attempted += 1 + len(expected)
        if code is None:
            self._fail(1 + len(expected), f"{key}: raised")
            return
        if code != job.exit_code():
            self._fail(1, f"{key}: exit {code}, expected {job.exit_code()}")
        arts = sorted(p for p in out_dir.iterdir() if not p.name.endswith("_meta.json"))
        digest = hashlib.sha256()
        for path in arts:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        first = self.digests.setdefault(key, digest.hexdigest())
        if first != digest.hexdigest():
            self._fail(1, f"{key}: artifacts differ from the first run")
        reports = []
        for path in arts:
            if path.suffix == ".json":
                try:
                    reports = json.loads(path.read_text(encoding="utf-8"))["reports"]
                except (ValueError, KeyError):
                    self._fail(1, f"{key}: unreadable {path.name}")
        got = [(r["check"], r["verdict"]) for r in reports]
        if len(got) != len(expected):
            self._fail(1, f"{key}: {len(got)} reports, expected {len(expected)}")
        wrong = [f"{e[0]}={g[1]!r}" for g, e in zip(got, expected) if g != e]
        wrong += [f"{e[0]} missing" for e in expected[len(got):]]
        if wrong:
            self._fail(len(wrong), f"{key}: " + ", ".join(wrong))
        for r in reports:
            margin = float(r["worst_margin"])
            if r["check"].startswith("reconstruction_sup_error"):
                self.recon_err = max(self.recon_err, margin)
            if r["check"].startswith("conjugate_oracle_match"):
                self.conj_err = max(self.conj_err, margin)


def run_pass(cli, jobs, gate: Gate, work: pathlib.Path, tag: str) -> tuple[float, float]:
    """Run every job once; return the elapsed and the CPU seconds spent in
    parse_config + run."""
    elapsed = cpu = 0.0
    for i, job in enumerate(jobs):
        out_dir = work / f"{tag}-{i}"
        doc = json.loads(json.dumps(job.doc))
        code = None
        started, cpu_started = time.perf_counter(), time.process_time()
        try:
            code = cli.run(cli.parse_config(doc, out=str(out_dir)), quiet=True)
        except Exception:  # the gate counts it; keep measuring the rest
            traceback.print_exc()
        elapsed += time.perf_counter() - started
        cpu += time.process_time() - cpu_started
        out_dir.mkdir(parents=True, exist_ok=True)
        gate.check(job, f"job{i}", code, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
    return elapsed, cpu


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, seed: int, count: int) -> list[tuple[float, float]]:
    """Elapsed and CPU seconds of `count` fresh interpreters that each import
    hamrep, parse the workload's configs and resolve their specs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(count):
        started, cpu_started = time.perf_counter(), _children_cpu()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - started, _children_cpu() - cpu_started))
    return times


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def passes_for(seconds: float, run_one) -> list[tuple[float, float]]:
    """Closed loop: run one pass, then another while the last would still fit
    in `seconds` of elapsed time."""
    passes: list[tuple[float, float]] = []
    started = time.perf_counter()
    while True:
        passes.append(run_one(len(passes)))
        if time.perf_counter() - started + passes[-1][0] > seconds:
            return passes


def _show(label: str, times: list[tuple[float, float]]) -> None:
    print(f"{label} {len(times)}, elapsed: " + " ".join(f"{e:.3f}" for e, _ in times) + " s")
    print(f"{label} {len(times)}, cpu:     " + " ".join(f"{c:.3f}" for _, c in times) + " s")


def import_cli():
    """hamrep.cli from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "hamrep" / "__init__.py").is_file():
        raise ImportError(f"no hamrep sources under {src}")
    sys.path.insert(0, str(src))
    from hamrep import cli

    if not pathlib.Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"imported hamrep from {cli.__file__}, not {src}")
    return cli


def end_to_end(cli, jobs, gate: Gate, work: pathlib.Path, args) -> dict[str, float]:
    # the first start may write bytecode caches, so it is a dropped warm-up;
    # the machine's speed drifts over tens of seconds, so half the probes
    # run before the passes and half after
    measure_setup(args.workload, args.seed, 1)
    setup = measure_setup(args.workload, args.seed, SETUP_PROBES)
    passes = passes_for(args.seconds, lambda k: run_pass(cli, jobs, gate, work, f"p{k}"))
    setup += measure_setup(args.workload, args.seed, SETUP_PROBES)
    _show("passes", passes)
    _show("setup probes", setup)
    return {
        "wall_s": statistics.median(c for _, c in passes),
        "setup_s": statistics.median(c for _, c in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(cli, jobs, gate: Gate, work: pathlib.Path, args, env: dict) -> dict[str, float]:
    untraced, _ = run_pass(cli, jobs, gate, work, "u")
    tracer = Tracer()
    tracer.install()

    def traced_pass(k: int) -> float:
        tracer.current_pass = k
        return run_pass(cli, jobs, gate, work, f"t{k}")

    try:
        walls = [e for e, _ in passes_for(max(args.seconds - untraced, 0.0), traced_pass)]
    finally:
        tracer.uninstall()
    per_pass = [tracer.layer_metrics(k) for k in range(len(walls))]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in LAYER_METRICS}
    metrics["trace.traced_wall_s"] = statistics.median(walls)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - untraced
    metrics["trace.unattributed_s"] = statistics.median(
        w - p["trace.accounted_s"] for w, p in zip(walls, per_pass)
    )
    spans = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.npz"
    np.savez_compressed(spans, names=np.array(tracer.names), env=json.dumps(env), **tracer.spans())
    print(f"untraced pass {untraced:.3f} s; traced passes {len(walls)}: "
          + " ".join(f"{w:.3f}" for w in walls) + f" s; spans in {spans.relative_to(ROOT)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    jobs = workloads.jobs(args.workload, args.seed)
    env = environment()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    gate = Gate()
    try:
        if args.trace:
            metrics = per_layer(cli, jobs, gate, work, args, env)
            units = {**LAYER_METRICS, **TRACE_EXTRA, **QUALITY}
        else:
            metrics = end_to_end(cli, jobs, gate, work, args)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics["fail_ratio"] = gate.failed / gate.attempted
    metrics["recon_err"] = gate.recon_err
    metrics["conj_err"] = gate.conj_err

    for problem in gate.problems:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units.get(name) or QUALITY[name]}")
    print(f"ops attempted={gate.attempted} failed={gate.failed}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
