"""Benchmark of the commchain CLI: four seeded workloads, answers checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans around each layer's public functions.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs each workload in its own process, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("classify", "oracle", "census", "bridge")
# One BLAS thread: steadier timings on a shared two-core machine.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _env_lines() -> list[str]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return [
        f"env: python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas.get('name', '?')} {blas.get('version', '?')}, nproc {os.cpu_count()}, "
        f"affinity {len(os.sched_getaffinity(0))}, {threads}, commit {_git_commit()}",
    ]


def _run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    src = ROOT / "src"
    if not (src / "commchain" / "cli.py").is_file():
        print(f"perfbench: no commchain sources under {src}", file=sys.stderr)
        return 2
    # The thread count must be fixed before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, _env_lines())


if __name__ == "__main__":
    sys.exit(main())
