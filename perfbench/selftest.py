"""Self-test of the benchmark itself (takes about two minutes):

    python3 perfbench/selftest.py

1. BENCHMARK.json names the workloads and metrics the code reports. Every
   workload runs one traced pass to the end with no failed op, and the
   layer self times account for the pass's time.
2. The gate trips on a deliberately wrong pinned verdict and on artifacts
   that differ from an earlier run of the same config.
3. In a directory that holds only BENCHMARK.json and the benchmark's own
   files, run.py exits nonzero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

import run
import workloads
from tracer import LAYER_METRICS, Tracer


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def main() -> int:
    cli = run.import_cli()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []
    bench_work = run.ROOT / ".bench_work"
    bench_work.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="selftest-", dir=bench_work))
    try:
        check(
            [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
            "BENCHMARK.json names the workloads of workloads.py",
            failures,
        )
        reported = {**LAYER_METRICS, **run.TRACE_EXTRA, **run.QUALITY}
        check(
            {m["name"]: m["unit"] for m in spec["per_layer"]} == reported,
            "BENCHMARK.json per_layer matches the traced run's metrics and units",
            failures,
        )
        check(
            {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
            "BENCHMARK.json end_to_end matches the untraced run's metrics and units",
            failures,
        )

        for name in workloads.WORKLOADS:
            gate = run.Gate()
            tracer = Tracer()
            tracer.install()
            try:
                wall, _ = run.run_pass(cli, workloads.jobs(name, 0), gate, work, name)
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics(0)
            check(
                gate.failed == 0 and gate.attempted > 0,
                f"{name}: traced pass ran {gate.attempted} ops, {gate.failed} failed {gate.problems}",
                failures,
            )
            layers = {k: v for k, v in metrics.items() if k.endswith("self_s") and k.count(".") == 1}
            layers["cli.run.self_s"] = metrics["cli.run.self_s"]
            lead = max(layers, key=layers.get)
            check(
                abs(wall - metrics["trace.accounted_s"]) <= 0.01 * wall,
                f"{name}: layer self times {metrics['trace.accounted_s']:.2f} s account for the "
                f"traced pass {wall:.2f} s (largest: {lead} {layers[lead]:.2f} s)",
                failures,
            )

        # the cheapest job, once with a wrong pinned verdict, once with a
        # digest that an earlier run of the same config never produced
        job = workloads.jobs("continuity", 0)[-1]
        wrong = dataclasses.replace(job, pinned={"episum_identity": "fail"})
        gate = run.Gate()
        run.run_pass(cli, [wrong], gate, work, "wrong")
        # one wrong verdict, and the exit code 2 that a "fail" verdict implies
        check(gate.failed == 2, f"gate trips on a wrong expected verdict ({gate.problems})", failures)
        gate = run.Gate()
        gate.digests["job0"] = "0" * 64
        run.run_pass(cli, [job], gate, work, "digest")
        check(gate.failed == 1, f"gate trips on differing artifacts ({gate.problems})", failures)

        bare = work / "bare"
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "continuity", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(
            proc.returncode != 0 and '"correct"' not in proc.stdout,
            f"without sources run.py exits {proc.returncode} and prints no result",
            failures,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest " + ("passed" if not failures else f"FAILED: {len(failures)} check(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
