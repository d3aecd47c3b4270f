#!/usr/bin/env python3
"""Benchmark fbl end to end (untraced) or per layer (traced).

    python3 perfbench/run.py --workload balanced_20k --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the benchmark imports fbl from its
``src/`` directory and refuses to run without it. The last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``,
with the end-to-end metrics when ``--trace 0`` and the per-layer metrics
when ``--trace 1``. The line before it holds the run's metadata. Scratch
files live under ``.bench_work/`` and are removed at exit; a traced run
leaves its spans in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1  # one client, one core: steadier than sharing BLAS threads


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["balanced_20k", "project_cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "fbl" / "__init__.py").is_file():
        print(f"fbl sources not found under {src}; run from a source checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # read when numpy loads BLAS, below
    sys.path[:0] = [str(src), str(HERE)]

    import numpy as np

    import fbl
    from fbl import _kernels

    if Path(fbl.__file__).resolve().parent != (src / "fbl").resolve():
        print(f"imported fbl from {fbl.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import run_workload

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        result, meta, tracer = run_workload(args.workload, args.seed, args.seconds,
                                            bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write_jsonl(out / f"trace-{args.workload}-seed{args.seed}.jsonl")

    meta.update({
        "kernel_backend": _kernels.BACKEND,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(src / "fbl"),
    })
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
