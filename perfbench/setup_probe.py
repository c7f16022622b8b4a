"""Set-up a user pays before any work: import hamrep, parse the configs of
one workload and resolve the Hamiltonians and families they name.

Run by run.py in fresh interpreters, which time it from start to exit:

    python3 perfbench/setup_probe.py --workload represent --seed 0
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from hamrep import cli, exprs, stability, zoo

    for job in workloads.jobs(args.workload, args.seed):
        cfg = cli.parse_config(dict(job.doc), out=str(ROOT / ".bench_work"))
        ham = cfg.hamiltonian if "hamiltonian" in job.doc else []
        if isinstance(ham, dict):
            exprs.compile_hamiltonian(ham)
        else:
            names = zoo.names() if ham == "all" else [ham] if isinstance(ham, str) else ham
            for name in names:
                zoo.builtin(name)
        if cfg.family is not None:
            stability.named_family(cfg.family)
    return 0


if __name__ == "__main__":
    sys.exit(main())
